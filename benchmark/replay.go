package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

// The layered replay re-does a workload's cascade call by call, the way
// package core composes it with one worker: Steensgaard (with
// devirtualization), Algorithm-1 slicing, the Andersen-refined cover, the
// whole-program fallback, the call graph, then per cluster either the
// FSCS engine (construction, Algorithm-5 summaries, Algorithm-3 value
// collection) or the cache (key, probe, import), and the cache store.

// maxCond is the FSCS condition-width bound core uses by default; cache
// keys depend on it.
const maxCond = 8

// serialAndersen are the Andersen options core passes with one worker.
func serialAndersen() []andersen.Option {
	return []andersen.Option{andersen.WithCycleElimination(), andersen.WithDeltaPropagation()}
}

// front is the replayed front end of the cascade.
type front struct {
	prog       *ir.Program
	sa         *steens.Analysis
	clusters   []*cluster.Cluster
	fallback   *andersen.Analysis
	cg         *callgraph.Graph
	sliceStmts int
}

// replayFront runs the front end of the cascade over prog, one span per
// call.
func replayFront(tr *tracer, prog *ir.Program) (*front, error) {
	f := &front{prog: prog}
	var err error
	tr.do("steens.analyze", -1, func() {
		f.sa = steens.Analyze(prog)
		if frontend.HasIndirectCalls(prog) {
			sa := f.sa
			if err = frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID {
				return sa.Targets(fp)
			}); err == nil {
				f.sa = steens.Analyze(prog)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("devirtualize: %w", err)
	}
	var ix *cluster.Index
	tr.do("cluster.index", -1, func() { ix = cluster.NewIndex(prog, f.sa) })
	for _, part := range f.sa.Partitions() {
		tr.do("cluster.slice", -1, func() {
			_, stmts := ix.RelevantStatements(part)
			f.sliceStmts += len(stmts)
		})
	}
	tr.do("cluster.cover", -1, func() {
		f.clusters = cluster.BuildAndersen(prog, f.sa, andersenThreshold, serialAndersen()...)
	})
	tr.do("andersen.fallback", -1, func() { f.fallback = andersen.Analyze(prog, serialAndersen()...) })
	tr.do("callgraph.build", -1, func() { f.cg = callgraph.Build(prog) })
	return f, nil
}

func (f *front) engineOpts() []fscs.Option {
	return []fscs.Option{fscs.WithFallback(f.fallback), fscs.WithMaxCond(maxCond), fscs.WithInterning(true)}
}

// fscsStats sums the engines' work counters.
type fscsStats struct {
	tuples          int64
	summaries       int64
	hits, misses    int64
	probes, cached  int
	stored, storedB int
}

func (st *fscsStats) add(e *fscs.Engine) {
	st.tuples += e.TuplesProcessed
	st.summaries += int64(e.SummariesBuilt)
	h, m := e.InternStats()
	st.hits += h
	st.misses += m
}

// solve runs one cluster's FSCS engine as Engine.Run does, in three
// spans: construction, the Algorithm-5 summaries of every function that
// modifies a V_P variable (shallow variables first), and the Algorithm-3
// value sets at every occurrence of a cluster pointer in St_P.
func (f *front) solve(tr *tracer, c *cluster.Cluster, st *fscsStats) *fscs.Engine {
	var e *fscs.Engine
	tr.do("fscs.engine_new", c.ID, func() { e = fscs.NewEngine(f.prog, f.cg, f.sa, c, f.engineOpts()...) })
	tr.do("fscs.summary", c.ID, func() {
		for _, fn := range e.SummaryFuncs() {
			var vars []ir.VarID
			for _, v := range c.Vars {
				if e.Modifies(fn, v) {
					vars = append(vars, v)
				}
			}
			sort.SliceStable(vars, func(i, j int) bool { return f.sa.Depth(vars[i]) < f.sa.Depth(vars[j]) })
			for _, v := range vars {
				e.Summary(fn, v)
			}
		}
	})
	tr.do("fscs.values", c.ID, func() {
		occ := map[ir.VarID][]ir.Loc{}
		for _, loc := range c.Stmts {
			s := f.prog.Node(loc).Stmt
			for _, v := range []ir.VarID{s.Dst, s.Src} {
				if v != ir.NoVar && c.HasPointer(v) {
					occ[v] = append(occ[v], loc)
				}
			}
		}
		for _, p := range c.Pointers {
			for _, loc := range occ[p] {
				e.PointsToAt(p, loc)
			}
		}
	})
	st.add(e)
	return e
}

// canon computes a cluster's cache key.
func (f *front) canon(tr *tracer, c *cluster.Cluster) *cache.Canon {
	var cn *cache.Canon
	tr.do("cache.key", c.ID, func() {
		cn = cache.NewCanon(f.prog, f.sa, f.cg, c, cache.Params{MaxCond: maxCond})
	})
	return cn
}

// replayBatch replays the batch workload: lowering, then the analysis of
// a fresh copy of the program, solving every cluster and storing it in a
// fresh disk cache under dir; then, so the cache layer is measured too,
// the re-analysis of another fresh copy from a new cache over dir, keying,
// probing and importing every cluster (the imported engines are
// dropped). It returns the solving analysis' front end and engines.
func replayBatch(tr *tracer, src, dir string, st *fscsStats) (*front, []*fscs.Engine, error) {
	var prog, solved, warm *ir.Program
	var err error
	tr.do("frontend.lower", -1, func() { prog, err = frontend.LowerSource(src) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("ir.clone", -1, func() { solved = prog.Clone() })
	f, err := replayFront(tr, solved)
	if err != nil {
		return nil, nil, err
	}
	ch := cache.New(cache.Options{Dir: dir})
	engines := make([]*fscs.Engine, 0, len(f.clusters))
	for _, c := range f.clusters {
		cn := f.canon(tr, c)
		e := f.solve(tr, c, st)
		tr.do("cache.store", c.ID, func() {
			if data, ok := e.ExportState(cn); ok {
				ch.Put(cn.Key(), data)
				st.stored++
				st.storedB += len(data)
			}
		})
		engines = append(engines, e)
	}

	tr.do("ir.clone", -1, func() { warm = prog.Clone() })
	wf, err := replayFront(tr, warm)
	if err != nil {
		return nil, nil, err
	}
	ch = cache.New(cache.Options{Dir: dir})
	for _, c := range wf.clusters {
		cn := wf.canon(tr, c)
		var data []byte
		var ok bool
		tr.do("cache.probe", c.ID, func() { data, ok = ch.Get(cn.Key()) })
		st.probes++
		if !ok {
			continue
		}
		st.cached++
		tr.do("cache.import", c.ID, func() {
			_, err = fscs.ImportEngine(wf.prog, wf.cg, wf.sa, c, cn, data, wf.engineOpts()...)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("import cluster %d: %w", c.ID, err)
		}
	}
	return f, engines, nil
}

// traceBatch is the batch workload's traced phase. It replays the
// workload traced, replays it again untraced (the overhead baseline,
// which also measures retained bytes per engine), then runs the untraced
// eager analysis the end-to-end phase times, for core's scheduling
// counters, the runtime counters and the checks.
func traceBatch(o options, out *outcome, src string, prog *ir.Program) (*core.Analysis, error) {
	replay := func(tr *tracer, st *fscsStats) (*front, []*fscs.Engine, time.Duration, error) {
		dir, err := os.MkdirTemp("", "benchmark-trace-cache-")
		if err != nil {
			return nil, nil, 0, err
		}
		defer os.RemoveAll(dir)
		runtime.GC()
		t := time.Now()
		root := tr.begin("replay", -1)
		f, engines, err := replayBatch(tr, src, dir, st)
		tr.end(root)
		return f, engines, time.Since(t), err
	}

	tr := newTracer(true)
	var st fscsStats
	f, engines, _, err := replay(tr, &st)
	if err != nil {
		return nil, err
	}
	setFrontMetrics(out, tr, f, st)
	f, engines = nil, nil

	base := retainedHeap()
	_, engines, untraced, err := replay(newTracer(false), &fscsStats{})
	if err != nil {
		return nil, err
	}
	if n := len(engines); n > 0 {
		live := retainedHeap()
		out.set("fscs.engine_retained_kb", float64(live-min(base, live))/1024/float64(n))
	}
	runtime.KeepAlive(engines)
	engines = nil
	setTraceMetrics(out, tr, untraced)
	if err := tr.write(o.traceOut); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	p := prog.Clone()
	runtime.GC()
	r0 := readRuntime()
	t := time.Now()
	a, err := core.AnalyzeProgram(p, analysisConfig())
	secs := time.Since(t).Seconds()
	r1 := readRuntime()
	if err != nil {
		return nil, err
	}
	out.set("ops_per_s", float64(len(a.Health))/secs)
	recordRuntime(out, r0, r1)
	countClusters(out, a)
	setSchedulingMetrics(out, a)
	return a, nil
}

// setFrontMetrics sets the per-layer metrics of a traced batch replay.
func setFrontMetrics(out *outcome, tr *tracer, f *front, st fscsStats) {
	stats := tr.byName()
	setLayerTime(out, stats, "frontend.lower_ms", "frontend.lower_alloc_mb", "frontend.lower")
	out.set("frontend.ir_nodes", float64(len(f.prog.Nodes)))
	setLayerTime(out, stats, "steens.analyze_ms", "steens.alloc_mb", "steens.analyze")
	out.set("steens.partitions", float64(f.sa.NumPartitions()))
	out.set("steens.max_partition", float64(f.sa.MaxPartitionSize()))
	setLayerTime(out, stats, "cluster.slice_ms", "", "cluster.index", "cluster.slice")
	out.set("cluster.slice_stmts", float64(f.sliceStmts))
	setLayerTime(out, stats, "cluster.cover_ms", "cluster.cover_alloc_mb", "cluster.cover")
	oversized := 0
	for _, part := range f.sa.Partitions() {
		if len(part) > andersenThreshold {
			oversized++
		}
	}
	out.set("cluster.oversized_partitions", float64(oversized))
	out.set("cluster.clusters", float64(len(f.clusters)))
	maxCluster := 0
	for _, c := range f.clusters {
		maxCluster = max(maxCluster, c.Size())
	}
	out.set("cluster.max_cluster", float64(maxCluster))
	setLayerTime(out, stats, "andersen.fallback_ms", "andersen.fallback_alloc_mb", "andersen.fallback")
	ss := f.fallback.SolverStats()
	out.set("andersen.passes", float64(ss.Passes))
	out.set("andersen.delta_edges_fired", float64(ss.DeltaEdgesFired))
	setLayerTime(out, stats, "callgraph.build_ms", "", "callgraph.build")
	setLayerTime(out, stats, "ir.clone_ms", "", "ir.clone")

	setLayerTime(out, stats, "fscs.engine_new_ms", "fscs.engine_new_alloc_mb", "fscs.engine_new")
	setLayerTime(out, stats, "fscs.summary_ms", "fscs.summary_alloc_mb", "fscs.summary")
	setLayerTime(out, stats, "fscs.values_ms", "fscs.values_alloc_mb", "fscs.values")
	out.set("fscs.tuples", float64(st.tuples))
	out.set("fscs.summaries_built", float64(st.summaries))
	if st.hits+st.misses > 0 {
		out.set("fscs.intern_hit_ratio", float64(st.hits)/float64(st.hits+st.misses))
	}
	var perCluster []float64
	for _, d := range tr.perID("fscs.engine_new", "fscs.summary", "fscs.values") {
		perCluster = append(perCluster, ms(d))
	}
	out.set("fscs.cluster_p50_ms", quantile(perCluster, 0.5))
	out.set("fscs.cluster_max_ms", quantile(perCluster, 1))

	setLayerTime(out, stats, "cache.key_ms", "", "cache.key")
	setLayerTime(out, stats, "cache.probe_ms", "", "cache.probe")
	setLayerTime(out, stats, "cache.import_ms", "cache.import_alloc_mb", "cache.import")
	setLayerTime(out, stats, "cache.store_ms", "", "cache.store")
	if st.probes > 0 {
		out.set("cache.hit_ratio", float64(st.cached)/float64(st.probes))
	}
	if st.stored > 0 {
		out.set("cache.entry_kb", float64(st.storedB)/1024/float64(st.stored))
	}
}

// setSchedulingMetrics sets core's scheduling metrics from an eager
// analysis' timing and health.
func setSchedulingMetrics(out *outcome, a *core.Analysis) {
	busy, wall := a.Timing.FSCS, a.Timing.Wall
	out.set("core.fscs_busy_ms", ms(busy))
	out.set("core.fscs_wall_ms", ms(wall))
	if wall > 0 {
		out.set("core.parallel_efficiency", float64(busy)/(float64(workers())*float64(wall)))
	}
	demoted, retries := 0, 0
	for _, h := range a.Health {
		if h.Demoted {
			demoted++
		}
		retries += max(h.Attempts-1, 0)
	}
	out.set("core.demoted", float64(demoted))
	out.set("core.ladder_retries", float64(retries))
}
