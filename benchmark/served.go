package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/serve"
)

// The served workload: the alias daemon in-process behind a loopback
// HTTP server, driven by two closed-loop clients. Each client sends its
// next operation when the previous one returns: 95% queries (points-to
// or may-alias at a seeded function's exit), 5% single-statement edits.

const (
	clients = 2
	// opsPerClientSecond sizes the closed loop: each client sends
	// --seconds × opsPerClientSecond operations, about --seconds of work
	// on a 2-core machine. A fixed count, rather than a deadline, keeps
	// the server's state at the end (clusters solved, edits applied)
	// independent of how fast the run went.
	opsPerClientSecond = 125
	// editOneIn makes one operation in editOneIn an edit (5%).
	editOneIn = 20
	// editPool bounds the seeded edits a run can apply; every one targets
	// a distinct statement.
	editPool = 4000
	// verifyQueries is how many of the last answered queries are asked
	// again, at the final snapshot, when the clients have stopped.
	verifyQueries = 200
	queryTimeout  = 2 * time.Second
	queueDepth    = 64
	editTimeout   = 15 * time.Second
)

// serveConfig is the explicit server configuration: the full bootstrap
// cascade (serve.Config's zero value would build one whole-program
// cluster), the paper's threshold, one solve slot per CPU.
func serveConfig() serve.Config {
	return serve.Config{
		Analysis:     analysisConfig(),
		QueryTimeout: queryTimeout,
		QueueDepth:   queueDepth,
		MaxSolves:    workers(),
		EditTimeout:  editTimeout,
	}
}

// op is one operation of the stream and, once sent, its outcome.
type op struct {
	edit *ir.Edit // nil for a query
	q    query

	start, end time.Duration // since the loop started
	status     int           // HTTP status; 0 on a transport error
	ans        answer
	warm       bool
	coalesced  bool
	snapshot   int64
}

func (o *op) ok() bool { return o.status == http.StatusOK }

// client is the HTTP side of the workload.
type client struct {
	hc   *http.Client
	base string
	prog *ir.Program // the initial program, for names
}

func (c *client) post(path string, body any, into any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			return 0, fmt.Errorf("decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// send performs o against the server and records its outcome.
func (c *client) send(o *op) {
	p := c.prog
	if o.edit != nil {
		var resp serve.EditResponse
		o.status, _ = c.post("/edit", serve.EditRequest{Edits: []serve.EditSpec{editSpec(p, *o.edit)}}, &resp)
		o.snapshot, o.coalesced = resp.Snapshot, resp.Coalesced
		return
	}
	req := serve.QueryRequest{P: p.VarName(o.q.p), At: p.Func(o.q.at).Name}
	path := "/v1/pointsto"
	if o.q.mayAlias {
		req.Q = p.VarName(o.q.q)
		path = "/v1/mayalias"
	}
	var resp serve.QueryResponse
	o.status, _ = c.post(path, req, &resp)
	o.snapshot, o.warm = resp.Snapshot, resp.Warm
	o.ans.precise = !resp.Degraded
	if resp.MayAlias != nil {
		o.ans.alias = *resp.MayAlias
	}
	for _, n := range resp.PointsTo {
		o.ans.objs = append(o.ans.objs, p.VarByName[n])
	}
	sort.Slice(o.ans.objs, func(i, j int) bool { return o.ans.objs[i] < o.ans.objs[j] })
}

var opNames = map[ir.Op]string{ir.OpCopy: "copy", ir.OpAddr: "addr", ir.OpLoad: "load"}

// editSpec addresses an edit symbolically, as a client would.
func editSpec(p *ir.Program, e ir.Edit) serve.EditSpec {
	if e.Kind == ir.EditDeleteStmt {
		return serve.EditSpec{Action: "delete", Loc: int64(e.Loc)}
	}
	return serve.EditSpec{Action: "replace", Loc: int64(e.Loc), Op: opNames[e.Stmt.Op],
		Dst: p.VarName(e.Stmt.Dst), Src: p.VarName(e.Stmt.Src)}
}

// startServer builds a server, loads the program and waits until
// /readyz answers.
func startServer(src string) (*serve.Server, *httptest.Server, time.Duration, error) {
	t := time.Now()
	srv := serve.New(serveConfig())
	ts := httptest.NewServer(srv.Handler())
	if _, err := srv.Load(context.Background(), "program", src); err != nil {
		ts.Close()
		return nil, nil, 0, fmt.Errorf("load: %w", err)
	}
	for {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			ts.Close()
			return nil, nil, 0, fmt.Errorf("readyz: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return srv, ts, time.Since(t), nil
}

// servedRun is what the closed loop produced.
type servedRun struct {
	ops     []*op // every operation sent, in start order
	elapsed time.Duration
	peak    float64 // median over one-second laps of the lap's peak, MiB
	retain  float64 // MiB
	rt0     runtimeSample
	rt1     runtimeSample
}

// runLoop drives the clients against the server behind ts, each for
// perClientOps operations.
func runLoop(srv *serve.Server, ts *httptest.Server, prog *ir.Program, a *core.Analysis, seed int64, perClientOps int) *servedRun {
	sampler := newQuerySampler(a)
	pool := seededEdits(prog, rand.New(rand.NewSource(seed^0x5eed)), editPool)
	var nextEdit atomic.Int64
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 2 * editTimeout}
	defer hc.CloseIdleConnections()

	perClient := make([][]*op, clients)
	runtime.GC()
	r := &servedRun{rt0: readRuntime()}
	hs := startHeapSampler(time.Second)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{hc: hc, base: ts.URL, prog: prog}
			rng := rand.New(rand.NewSource(seed*clients + int64(c)))
			for len(perClient[c]) < perClientOps {
				o := &op{}
				if rng.Intn(editOneIn) == 0 {
					if i := nextEdit.Add(1) - 1; i < int64(len(pool)) {
						o.edit = &pool[i]
					}
				}
				if o.edit == nil {
					o.q = sampler.draw(rng)
				}
				o.start = time.Since(start)
				cl.send(o)
				o.end = time.Since(start)
				perClient[c] = append(perClient[c], o)
			}
		}(c)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.rt1 = readRuntime()
	for _, ops := range perClient {
		r.ops = append(r.ops, ops...)
	}
	sort.SliceStable(r.ops, func(i, j int) bool { return r.ops[i].start < r.ops[j].start })
	r.peak = hs.Stop()
	// What a long-running server converges to: every cluster of the final
	// snapshot solved. Measured then, rather than at whatever subset the
	// stream happened to touch, the retained heap depends on the program
	// and the edits, not on which pointers the seed drew.
	final := srv.Snapshot().A
	for _, c := range final.Clusters {
		final.EnsureCluster(context.Background(), c.ID)
	}
	r.retain = float64(settledHeap()) / mib
	return r
}

// latencies splits the answered operations' round trips: queries in
// microseconds, edits in milliseconds.
func (r *servedRun) latencies() (queries, edits []float64) {
	for _, o := range r.ops {
		if !o.ok() {
			continue
		}
		if o.edit != nil {
			edits = append(edits, ms(o.end-o.start))
		} else {
			queries = append(queries, us(o.end-o.start))
		}
	}
	return queries, edits
}

// appliedEdits lists the edits the server accepted.
func (r *servedRun) appliedEdits() []ir.Edit {
	var out []ir.Edit
	for _, o := range r.ops {
		if o.edit != nil && o.ok() {
			out = append(out, *o.edit)
		}
	}
	return out
}

func runServedMixed(w workload, o options, log io.Writer) (*outcome, error) {
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	prog, _, err := lower(src)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	ph := newPhases()

	var srv *serve.Server
	var ts *httptest.Server
	setup, err := repeatMedian(func() (time.Duration, error) {
		if ts != nil {
			ts.Close()
			srv, ts = nil, nil
		}
		var d time.Duration
		var err error
		srv, ts, d, err = startServer(src)
		return d, err
	})
	if ts != nil {
		defer ts.Close()
	}
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup)
	ph.done("setup")
	a0 := srv.Snapshot().A
	printShape(log, w, a0.Prog, a0.Steens, a0.Clusters)

	r := runLoop(srv, ts, prog, a0, o.seed, max(1, int(o.seconds*opsPerClientSecond)))
	a0 = nil
	ph.done("loop")

	qlat, elat := r.latencies()
	out.set("query_p50_us", quantile(qlat, 0.5))
	out.set("query_p99_us", quantile(qlat, 0.99))
	out.set("edit_p50_ms", quantile(elat, 0.5))
	out.set("edit_p90_ms", quantile(elat, 0.9))
	out.set("ops_per_s", float64(len(qlat)+len(elat))/r.elapsed.Seconds())
	out.set("peak_heap_mb", r.peak)
	out.set("retained_heap_mb", r.retain)
	recordRuntime(out, r.rt0, r.rt1)

	degraded, answered := 0, 0
	for _, op := range r.ops {
		out.attempted++
		if !op.ok() {
			out.failed++
			continue
		}
		if op.edit == nil {
			answered++
			if !op.ans.precise {
				degraded++
			}
		}
	}

	// The reference: the benchmark's own copy of the program with every
	// accepted edit applied, analyzed eagerly from scratch.
	refProg := prog.Clone()
	if _, err := ir.ApplyEdits(refProg, r.appliedEdits()); err != nil {
		return nil, fmt.Errorf("apply edits to the reference: %w", err)
	}
	ref, err := core.AnalyzeProgram(refProg.Clone(), analysisConfig())
	if err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	ph.done("reference")
	// analyze_s: the lazy analysis the server runs when it (re)loads a
	// program, on the edited program.
	lazy := analysisConfig()
	lazy.Lazy = true
	analyze, err := repeatMedian(func() (time.Duration, error) {
		p := refProg.Clone()
		t := time.Now()
		_, err := core.AnalyzeProgram(p, lazy)
		return time.Since(t), err
	})
	if err != nil {
		return nil, fmt.Errorf("reload analysis: %w", err)
	}
	out.set("analyze_s", analyze)
	ph.done("reload")
	checkServed(out, srv, ts, prog, ref, r, o.corrupt)
	ph.done("checks")

	if o.trace {
		if err := traceServed(o, out, src, r); err != nil {
			return nil, err
		}
		ph.done("replay")
	}
	ph.print(log)
	setFractions(out, degraded, answered)
	return out, out.finish(o.trace)
}

// checkServed checks the served answers against the reference: the
// final snapshot's cluster fingerprints, every query the loop answered at
// the final snapshot, and the last verifyQueries queries asked again.
// Precise answers must equal the reference's, degraded ones contain it.
func checkServed(out *outcome, srv *serve.Server, ts *httptest.Server, prog *ir.Program, ref *core.Analysis, r *servedRun, corrupt bool) {
	final := srv.Snapshot()
	got, want := final.A.Fingerprints(), ref.Fingerprints()
	if len(got) != len(want) {
		out.checkFail("served snapshot has %d clusters, reference %d", len(got), len(want))
	}
	for id, fp := range want {
		if got[id] != fp {
			out.checkFail("cluster %d: served fingerprint differs from the reference", id)
		}
	}

	var queries []*op
	for _, o := range r.ops {
		if o.edit == nil && o.ok() {
			queries = append(queries, o)
		}
	}
	var checked []*op
	for _, o := range queries {
		if o.snapshot == final.ID {
			checked = append(checked, o)
		}
	}
	cl := &client{hc: ts.Client(), base: ts.URL, prog: prog}
	for _, o := range queries[max(0, len(queries)-verifyQueries):] {
		again := &op{q: o.q}
		cl.send(again)
		out.attempted++
		if !again.ok() {
			out.failed++
			continue
		}
		checked = append(checked, again)
	}
	ctx := context.Background()
	for _, o := range checked {
		want := ask(ctx, ref, o.q)
		got := o.ans
		if corrupt && !o.q.mayAlias {
			got, corrupt = corruptAnswer(prog, got, want.objs), false
		}
		checkEqual(out, prog, o.q, got, want)
	}
	if len(checked) == 0 {
		out.checkFail("no served answer could be checked")
	}
}
