package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"bootstrap/internal/check"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// Handler returns the daemon's full HTTP surface:
//
//	POST /v1/mayalias   {"p":..,"q":..,"at":..}        may-alias query
//	POST /v1/pointsto   {"p":..,"at":..}               points-to query
//	POST /v1/lockset    {}                             race report: a view of the memoized lockset check
//	POST /v1/check      {"pass":"lockset"}             run one checker pass
//	GET  /v1/info                                      snapshot + server state
//	GET  /v1/vars                                      query population for load drivers
//	POST /reload        {"source":..} | {"variant":n}  snapshot swap
//	POST /edit          {"edits":[..]}                 incremental edit (ApplyEdit + swap)
//	GET  /subscribe                                    SSE stream: snapshot/cluster/invalidate
//	POST /chaos         (only with AllowChaos)         arm/disarm fault injection
//	GET  /healthz                                      process liveness (always 200)
//	GET  /readyz                                       200 iff serving and not draining
//	GET  /metrics, /debug/vars, /debug/pprof/*         (only with Metrics)
//
// Every handler runs behind a panic barrier: a handler bug answers that
// one request with 500 and increments aliasd_handler_panics_total — the
// daemon itself never dies.
func (s *Server) Handler() http.Handler {
	s.handlerOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/mayalias", func(w http.ResponseWriter, r *http.Request) {
			s.handleQuery(w, r, kindMayAlias)
		})
		mux.HandleFunc("POST /v1/pointsto", func(w http.ResponseWriter, r *http.Request) {
			s.handleQuery(w, r, kindPointsTo)
		})
		mux.HandleFunc("POST /v1/lockset", s.handleLockset)
		mux.HandleFunc("POST /v1/check", s.handleCheck)
		mux.HandleFunc("GET /v1/info", s.handleInfo)
		mux.HandleFunc("GET /v1/vars", s.handleVars)
		mux.HandleFunc("POST /reload", s.handleReload)
		mux.HandleFunc("POST /edit", s.handleEdit)
		mux.HandleFunc("GET /subscribe", s.handleSubscribe)
		if s.cfg.AllowChaos {
			mux.HandleFunc("POST /chaos", s.handleChaos)
		}
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			if !s.Ready() {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
		})
		if m := s.cfg.Metrics; m != nil {
			obsMux := m.ServeMux()
			mux.Handle("/metrics", obsMux)
			mux.Handle("/debug/", obsMux)
		}
		s.handler = s.recoverWrap(mux)
	})
	return s.handler
}

// ServeHTTP makes *Server usable directly with httptest and http.Serve.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.Handler().ServeHTTP(w, r)
}

// recoverWrap is the panic barrier around every handler.
func (s *Server) recoverWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.mPanics.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					ErrorResponse{Error: fmt.Sprintf("internal: %v", rec)})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

type queryKind uint8

const (
	kindMayAlias queryKind = iota
	kindPointsTo
)

func (k queryKind) String() string {
	if k == kindMayAlias {
		return "mayalias"
	}
	return "pointsto"
}

// decodeBody reads one JSON body into v under the given size limit.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// resolveLoc maps a request's "at" to a query location: the named
// function's exit, defaulting to the entry function's exit (the classic
// whole-program vantage point).
func resolveLoc(prog *ir.Program, at string) (ir.Loc, error) {
	fn := prog.Entry
	if at != "" {
		id, ok := prog.FuncByName[at]
		if !ok {
			return 0, fmt.Errorf("unknown function %q", at)
		}
		fn = id
	}
	return prog.Func(fn).Exit, nil
}

// queryDeadline derives one query's deadline: the server's QueryTimeout,
// lowered (never raised) by the request's timeout_ms.
func (s *Server) queryDeadline(overrideMS int) time.Duration {
	d := s.cfg.QueryTimeout
	if overrideMS > 0 {
		if o := time.Duration(overrideMS) * time.Millisecond; o < d {
			d = o
		}
	}
	return d
}

// handleQuery is the shared body of /v1/mayalias and /v1/pointsto: the
// full robustness path — snapshot pin, warm bypass, bounded admission,
// injected latency, deadline-degraded computation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, kind queryKind) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return
	}
	sn := s.snap.Load() // pinned: this whole request answers from sn
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "no program loaded"})
		return
	}
	var req QueryRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	p, ok := sn.Prog.VarByName[req.P]
	if !ok {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown variable %q", req.P)})
		return
	}
	var q ir.VarID
	if kind == kindMayAlias {
		if q, ok = sn.Prog.VarByName[req.Q]; !ok {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown variable %q", req.Q)})
			return
		}
	}
	loc, err := resolveLoc(sn.Prog, req.At)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	// Warm means this query cannot trigger a solve — p's clusters are
	// already solved, or the answer is structural (identical pair,
	// partition-disjoint pair, pointer outside every cluster). Warm
	// queries bypass cold admission below.
	var warm bool
	if kind == kindMayAlias {
		warm = !sn.A.MayAliasNeedsSolve(p, q)
	} else {
		warm = !sn.A.PointsToNeedsSolve(p)
	}

	start := time.Now()
	qctx, cancel := context.WithTimeout(r.Context(), s.queryDeadline(req.TimeoutMS))
	defer cancel()

	lane := int(s.lane.Add(1)-1) % queryLanes
	sp := s.cfg.Tracer.Start("query", kind.String(), obs.QueryTID(lane)).
		Arg("p", req.P).Arg("warm", warm).Arg("snapshot", sn.ID)

	if !warm {
		// Cold: the query needs at least one solve. Bounded admission —
		// a free solve slot admits immediately, a full queue sheds, and
		// a deadline that fires while queued degrades (the computation
		// below then answers from the fallback without starting work).
		release, verdict := s.admitCold(qctx.Done())
		switch verdict {
		case admitOK:
			defer release()
		case admitShed:
			s.mShed.Add(1)
			ra := s.retryAfter()
			w.Header().Set("Retry-After", strconv.Itoa(int(ra.Seconds()+0.999)))
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
				Error:        "overloaded: cold-query queue full",
				RetryAfterMS: ra.Milliseconds(),
			})
			sp.Arg("shed", true).End()
			return
		case admitExpired:
			// fall through: qctx is done, the query degrades below.
		}
	}

	// Chaos hook: an injected latency spike sleeps under the query's own
	// deadline, so it degrades the answer instead of hanging the client.
	if d := s.inj.QueryDelay(); d > 0 {
		select {
		case <-time.After(d):
		case <-qctx.Done():
		}
	}

	resp := QueryResponse{Warm: warm, Snapshot: sn.ID}
	switch kind {
	case kindMayAlias:
		aliased, precise := sn.A.MayAliasContext(qctx, p, q, loc)
		resp.MayAlias = &aliased
		resp.Degraded = !precise
	case kindPointsTo:
		objs, precise := sn.A.PointsToContext(qctx, p, loc)
		names := make([]string, len(objs))
		for i, o := range objs {
			names[i] = sn.Prog.VarName(o)
		}
		resp.PointsTo = names
		resp.Precise = &precise
		resp.Degraded = !precise
	}
	elapsed := time.Since(start)
	resp.ElapsedUS = elapsed.Microseconds()

	s.mQueries.Add(1)
	s.hQuery.Observe(elapsed.Seconds())
	if warm {
		s.mWarm.Add(1)
	} else {
		s.mCold.Add(1)
		s.hCold.Observe(elapsed.Seconds())
		s.observeCold(elapsed)
	}
	if resp.Degraded {
		s.mDegraded.Add(1)
	}
	sp.Arg("degraded", resp.Degraded).End()
	// Remember the answered key so /subscribe can push a precise
	// invalidation if a later edit dirties one of its clusters.
	s.recordQuery(sn.ID, kind, req.P, req.Q, req.At)
	writeJSON(w, http.StatusOK, resp)
}

// handleLockset serves the snapshot's race report: a view of the
// memoized "lockset" checker run that /v1/check shares. The run solves
// only the clusters holding a lock pointer, once per snapshot; a
// request whose deadline fires first gets ready=false and a retry hint
// while the run keeps going.
func (s *Server) handleLockset(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return
	}
	sn := s.snap.Load()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "no program loaded"})
		return
	}
	var req QueryRequest // only timeout_ms is honored
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
	}
	qctx, cancel := context.WithTimeout(r.Context(), s.queryDeadline(req.TimeoutMS))
	defer cancel()
	rep, ran, ready := sn.CheckPass(qctx, s, &check.LocksetPass{})
	if !ready {
		writeJSON(w, http.StatusOK, LocksetResponse{
			Ready:        false,
			Snapshot:     sn.ID,
			RetryAfterMS: s.retryAfter().Milliseconds(),
		})
		return
	}
	lp := ran.(*check.LocksetPass)
	resp := LocksetResponse{Ready: true, Threads: lp.Threads, Accesses: lp.Accesses, Snapshot: sn.ID}
	for _, d := range rep.Diagnostics() {
		resp.Races = append(resp.Races, d.Message)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCheck runs one named checker pass against the live snapshot —
// the served face of the aliaslint engine. The pass runs once per
// (snapshot, pass) pair with its footprint clusters pre-solved through
// the solve semaphore; every finding is stamped with the snapshot id
// and carries the same fingerprint the batch run would produce.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return
	}
	sn := s.snap.Load()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "no program loaded"})
		return
	}
	var req CheckRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	pass, ok := check.Lookup(req.Pass)
	if !ok {
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("unknown pass %q", req.Pass)})
		return
	}
	qctx, cancel := context.WithTimeout(r.Context(), s.queryDeadline(req.TimeoutMS))
	defer cancel()
	rep, _, ready := sn.CheckPass(qctx, s, pass)
	if !ready {
		writeJSON(w, http.StatusOK, CheckResponse{
			Ready:        false,
			Pass:         pass.Name(),
			Snapshot:     sn.ID,
			RetryAfterMS: s.retryAfter().Milliseconds(),
		})
		return
	}
	resp := CheckResponse{Ready: true, Pass: pass.Name(), Snapshot: sn.ID}
	for _, res := range rep.Results {
		resp.Incomplete = resp.Incomplete || res.Incomplete
		for _, d := range res.Diags {
			resp.Findings = append(resp.Findings, CheckFinding{
				Rule:        d.Rule,
				Severity:    d.Severity.String(),
				Loc:         int64(d.Loc),
				Func:        d.Func,
				Message:     d.Message,
				Fingerprint: d.Fingerprint,
				Snapshot:    d.Snapshot,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReload swaps in a new program under live traffic.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return
	}
	var req ReloadRequest
	if err := decodeBody(w, r, 64<<20, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	desc, src := "inline source", req.Source
	if src == "" {
		if s.cfg.Regen == nil {
			writeJSON(w, http.StatusBadRequest,
				ErrorResponse{Error: "empty source and no regenerator configured"})
			return
		}
		var err error
		desc, src, err = s.cfg.Regen(req.Variant)
		if err != nil {
			s.mReloadFail.Add(1)
			writeJSON(w, http.StatusUnprocessableEntity,
				ErrorResponse{Error: fmt.Sprintf("regenerate: %v", err)})
			return
		}
	}
	start := time.Now()
	sn, err := s.Reload(r.Context(), desc, src)
	if err != nil {
		// The old snapshot keeps serving; reload is all-or-nothing.
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{
		Snapshot:  sn.ID,
		Desc:      sn.Desc,
		Vars:      sn.Prog.NumVars(),
		Clusters:  len(sn.A.Clusters),
		ElapsedUS: time.Since(start).Microseconds(),
	})
}

// handleChaos arms or disarms fault injection (mounted only with
// AllowChaos).
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	var req ChaosRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	s.Chaos(req)
	writeJSON(w, http.StatusOK, ChaosResponse{Armed: s.ChaosArmed()})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := InfoResponse{
		Draining:    s.draining.Load(),
		ChaosArmed:  s.ChaosArmed(),
		QueueDepth:  s.cfg.QueueDepth,
		MaxSolves:   s.cfg.MaxSolves,
		QueryTimeMS: s.cfg.QueryTimeout.Milliseconds(),
	}
	if sn := s.snap.Load(); sn != nil {
		solved, demoted := sn.A.SolveStats()
		info.Snapshot = sn.ID
		info.Desc = sn.Desc
		info.Vars = sn.Prog.NumVars()
		info.Funcs = len(sn.Prog.Funcs)
		info.Clusters = len(sn.A.Clusters)
		info.Solved = solved
		info.Demoted = demoted
	}
	writeJSON(w, http.StatusOK, info)
}

// varsPartitionCap bounds the partition groups /v1/vars returns; they
// are a sampling aid for load drivers, not a dump.
const (
	varsPartitionCap = 256
	varsGroupCap     = 32
)

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "no program loaded"})
		return
	}
	covered := sn.A.CoveredPointers()
	resp := VarsResponse{Snapshot: sn.ID}
	for _, f := range sn.Prog.Funcs {
		resp.Funcs = append(resp.Funcs, f.Name)
	}
	resp.Pointers = make([]string, len(covered))
	for i, p := range covered {
		resp.Pointers[i] = sn.Prog.VarName(p)
	}
	// Group covered pointers by Steensgaard partition: only same-group
	// pairs can alias, so a load driver mixes both populations. Keyed by
	// the partition's first member, which is stable per snapshot.
	groups := map[ir.VarID][]string{}
	for _, p := range covered {
		part := sn.A.Steens.PartitionOf(p)
		if len(part) == 0 {
			continue
		}
		key := part[0]
		if len(groups[key]) < varsGroupCap {
			groups[key] = append(groups[key], sn.Prog.VarName(p))
		}
	}
	keys := make([]ir.VarID, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if len(groups[k]) < 2 {
			continue
		}
		resp.Partitions = append(resp.Partitions, groups[k])
		if len(resp.Partitions) >= varsPartitionCap {
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
