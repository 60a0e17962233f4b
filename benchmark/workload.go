package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// workload is one named benchmark input: a synthetic Table-1 program at a
// fixed scale, and the function that drives it.
type workload struct {
	bench string
	scale float64
	run   func(w workload, o options, log io.Writer) (*outcome, error)
}

// workloads maps each name in BENCHMARK.json to its driver. The programs
// are fixed per workload (see README.md, "Seeds"); the seed drives every
// sampled query, edit and check.
var workloads = map[string]workload{
	"cold_batch":   {bench: "clamd", scale: 0.2, run: runColdBatch},
	"served_mixed": {bench: "httpd", scale: 0.25, run: runServedMixed},
}

// andersenThreshold is the paper's partition size above which Andersen
// clustering refines a Steensgaard partition. Set explicitly so a change
// of the library default cannot change what is measured.
const andersenThreshold = 60

// workers is the per-cluster parallelism of every untraced run: one per
// CPU the process may use.
func workers() int { return runtime.NumCPU() }

// analysisConfig is the explicit core configuration every untraced run
// uses: the full bootstrap cascade, no cache, one worker per CPU.
func analysisConfig() core.Config {
	return core.Config{
		Mode:              core.ModeAndersen,
		AndersenThreshold: andersenThreshold,
		Workers:           workers(),
	}
}

// source generates the workload's CPL program.
func (w workload) source() (string, error) {
	b, ok := synth.FindBenchmark(w.bench)
	if !ok {
		return "", fmt.Errorf("no synthetic benchmark %q", w.bench)
	}
	return synth.Generate(b, w.scale), nil
}

// printShape logs the program's shape: a reader can see at once whether
// the Andersen-clustering stage had an oversized partition to refine.
func printShape(log io.Writer, w workload, prog *ir.Program, sa *steens.Analysis, clusters []*cluster.Cluster) {
	oversized := 0
	for _, part := range sa.Partitions() {
		if len(part) > andersenThreshold {
			oversized++
		}
	}
	fmt.Fprintf(log, "shape: program=%s@%g pointers=%d ir_nodes=%d partitions=%d max_partition=%d oversized_partitions=%d clusters=%d\n",
		w.bench, w.scale, prog.NumVars(), len(prog.Nodes), sa.NumPartitions(), sa.MaxPartitionSize(), oversized, len(clusters))
}

// lower parses and lowers src, timing the call.
func lower(src string) (*ir.Program, time.Duration, error) {
	t := time.Now()
	prog, err := frontend.LowerSource(src)
	return prog, time.Since(t), err
}

// A repeated measurement (set-up, or served_mixed's reload analysis)
// runs at least minReps times and for at least minRepTime.
const (
	minReps    = 3
	minRepTime = time.Second
)

// repeatMedian calls f, after a collection each time, until both minimums
// are met and returns the median of the durations f reports, in seconds.
func repeatMedian(f func() (time.Duration, error)) (float64, error) {
	var secs []float64
	var total time.Duration
	for len(secs) < minReps || total < minRepTime {
		runtime.GC()
		d, err := f()
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
		total += d
	}
	return median(secs), nil
}

// phases logs how a run's wall clock splits between its phases.
type phases struct {
	last  time.Time
	parts []string
}

func newPhases() *phases { return &phases{last: time.Now()} }

// done ends the named phase.
func (p *phases) done(name string) {
	p.parts = append(p.parts, fmt.Sprintf("%s=%.1fs", name, time.Since(p.last).Seconds()))
	p.last = time.Now()
}

func (p *phases) print(log io.Writer) {
	fmt.Fprintf(log, "phases: %s\n", strings.Join(p.parts, " "))
}

// outcome is what a workload driver hands back to run.
type outcome struct {
	metrics       map[string]metric
	attempted     int64
	failed        int64
	checkFailures []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric by name; the unit comes from the metric tables.
func (o *outcome) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// checkFail records one failed correctness check. Each one is also a
// failed operation.
func (o *outcome) checkFail(format string, args ...any) {
	o.failed++
	if len(o.checkFailures) < 20 {
		o.checkFailures = append(o.checkFailures, fmt.Sprintf(format, args...))
	}
}

// finish restricts the metrics to the printed set: end-to-end metrics
// with tracing off, per-layer ones with it on. A per-layer metric a
// workload never touches reads 0 (the layer did no work); a missing
// end-to-end metric is a driver bug.
func (o *outcome) finish(trace bool) error {
	set := endToEnd
	if trace {
		set = perLayer
	}
	out := make(map[string]metric, len(set))
	for _, s := range set {
		m, ok := o.metrics[s.name]
		if !ok {
			if !trace {
				return fmt.Errorf("end-to-end metric %s not measured", s.name)
			}
			m = metric{Unit: s.unit}
		}
		out[s.name] = m
	}
	o.metrics = out
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// runtimeSample reads the runtime counters the benchmark reports.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// recordRuntime sets the runtime layer's metrics for the window a..b.
func recordRuntime(out *outcome, a, b runtimeSample) {
	out.set("runtime.alloc_mb", float64(b.allocBytes-a.allocBytes)/mib)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out.set("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
}

// liveHeap reads the live heap as of the last completed GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// retainedHeap collects garbage and returns the live heap: what the
// process keeps while the caller holds its result reachable.
func retainedHeap() uint64 {
	runtime.GC()
	return liveHeap()
}

// heapSampler polls the live heap on a ticker until stopped. It keeps
// the highest value seen in each lap; a lap ends when lap is called or,
// with a positive lap period, every period.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	lapPeak uint64
	laps    []float64 // MiB
}

func startHeapSampler(lapEvery time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), lapPeak: liveHeap()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		lapStart := time.Now()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(liveHeap())
				if lapEvery > 0 && time.Since(lapStart) >= lapEvery {
					h.lap()
					lapStart = time.Now()
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	h.mu.Lock()
	h.lapPeak = max(h.lapPeak, v)
	h.mu.Unlock()
}

// lap closes the current lap and starts the next.
func (h *heapSampler) lap() {
	h.mu.Lock()
	h.laps = append(h.laps, float64(h.lapPeak)/mib)
	h.lapPeak = 0
	h.mu.Unlock()
}

// skip starts a new lap without recording the current one.
func (h *heapSampler) skip() {
	h.mu.Lock()
	h.lapPeak = 0
	h.mu.Unlock()
}

// Stop ends sampling, waits for the sampling goroutine to exit and
// returns the median over the closed laps of each lap's peak, in MiB. An
// unfinished lap counts only when no lap closed.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.laps) == 0 {
		return float64(h.lapPeak) / mib
	}
	return median(h.laps)
}

// settledHeap is retainedHeap once background work has drained: it
// collects until two successive readings agree within 1% (at most ten
// times, 50ms apart) and returns the lowest reading.
func settledHeap() uint64 {
	low := retainedHeap()
	for i := 0; i < 10; i++ {
		time.Sleep(50 * time.Millisecond)
		v := retainedHeap()
		settled := float64(v) >= 0.99*float64(low) && float64(v) <= 1.01*float64(low)
		low = min(low, v)
		if settled {
			break
		}
	}
	return low
}

// editableLocs lists the statements a seeded edit may rewrite: plain
// copies, address-ofs and loads outside call-return bindings, so a
// replacement needs no type bookkeeping.
func editableLocs(p *ir.Program) []ir.Loc {
	var out []ir.Loc
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad:
			if n.CallLoc == ir.NoLoc {
				out = append(out, n.Loc)
			}
		}
	}
	return out
}

// seededEdits draws n single-statement edits on n distinct statements of
// p: replace the statement's source with another editable statement's
// source, or, one time in five, delete it. Distinct targets make the
// edits commute, so the edited program does not depend on the order in
// which concurrent clients apply them.
func seededEdits(p *ir.Program, rng *rand.Rand, n int) []ir.Edit {
	locs := editableLocs(p)
	if len(locs) < 2 {
		return nil
	}
	targets := rng.Perm(len(locs))
	if n > len(targets) {
		n = len(targets)
	}
	out := make([]ir.Edit, 0, n)
	for _, i := range targets[:n] {
		loc := locs[i]
		if rng.Intn(5) == 0 {
			out = append(out, ir.Edit{Kind: ir.EditDeleteStmt, Loc: loc})
			continue
		}
		old := p.Node(loc).Stmt
		donor := p.Node(locs[rng.Intn(len(locs))]).Stmt
		// The same statement the served /edit endpoint resolves from a
		// symbolic spec, so served and in-process edits are identical.
		st := ir.Stmt{Op: old.Op, Dst: old.Dst, Src: donor.Src, Callee: ir.NoFunc, FPtr: ir.NoVar}
		out = append(out, ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: st})
	}
	return out
}

// query is one seeded alias query: points-to of p, or may-alias of p and
// q, at the exit of function at.
type query struct {
	mayAlias bool
	p, q     ir.VarID
	at       ir.FuncID
}

// querySampler draws seeded queries over a program's covered pointers:
// p uniformly, q uniformly from p's Steensgaard partition (pairs across
// partitions never alias and are answered structurally), the query
// location at a uniformly drawn function's exit.
type querySampler struct {
	ptrs  []ir.VarID
	peers map[ir.VarID][]ir.VarID
	funcs int
}

func newQuerySampler(a *core.Analysis) *querySampler {
	qs := &querySampler{ptrs: a.CoveredPointers(), peers: map[ir.VarID][]ir.VarID{}, funcs: len(a.Prog.Funcs)}
	covered := map[ir.VarID]bool{}
	for _, p := range qs.ptrs {
		covered[p] = true
	}
	for _, p := range qs.ptrs {
		for _, v := range a.Steens.PartitionOf(p) {
			if covered[v] {
				qs.peers[p] = append(qs.peers[p], v)
			}
		}
	}
	return qs
}

func (qs *querySampler) draw(rng *rand.Rand) query {
	p := qs.ptrs[rng.Intn(len(qs.ptrs))]
	q := query{p: p, at: ir.FuncID(rng.Intn(qs.funcs))}
	if rng.Intn(2) == 0 {
		q.mayAlias = true
		q.q = p
		if peers := qs.peers[p]; len(peers) > 0 {
			q.q = peers[rng.Intn(len(peers))]
		}
	}
	return q
}
