// Package core implements the paper's bootstrapping framework end to end:
// the cascade of increasingly precise analyses (Steensgaard → [One-Flow] →
// Andersen → summarization-based FSCS), where each stage runs only on the
// pointer subsets produced by the previous stage; per-cluster slicing via
// Algorithm 1; parallel execution of the independent per-cluster analyses;
// the paper's greedy k-machine simulation; and the demand-driven mode that
// analyzes only clusters whose pointers an application cares about (e.g.
// lock pointers for race detection).
//
// This is the public facade of the repository: parse/lower a program, call
// Analyze, and query flow- and context-sensitive aliases.
package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/faults"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/oneflow"
	"bootstrap/internal/steens"
)

// Mode selects the clustering cascade.
type Mode uint8

// Clustering modes, in increasing bootstrap depth. The paper's Table 1
// compares ModeNone (column "without clustering"), ModeSteensgaard and
// ModeAndersen; ModeSyntactic is the Zhang et al. related-work baseline.
const (
	ModeNone Mode = iota
	ModeSteensgaard
	ModeAndersen
	ModeSyntactic
)

var modeNames = [...]string{"none", "steensgaard", "andersen", "syntactic"}

func (m Mode) String() string { return modeNames[m] }

// Config tunes an analysis run.
type Config struct {
	// Mode selects the clustering cascade stage. The zero value is
	// ModeNone: no clustering, the whole program solved as one FSCS
	// cluster. Set ModeAndersen for the full bootstrap cascade
	// (Steensgaard partitions, Andersen-clustered where oversized).
	Mode Mode
	// AndersenThreshold is the partition size above which Andersen
	// clustering kicks in (paper: 60). Zero selects the default.
	AndersenThreshold int
	// UseOneFlow inserts Das's One-Level-Flow analysis between
	// Steensgaard and Andersen, refining which partitions are considered
	// oversized (the cascade extension the paper suggests in Section 4).
	UseOneFlow bool
	// Workers bounds the per-cluster parallelism and the Andersen
	// solver's wave-front fan-out. Zero means GOMAXPROCS; 1 forces
	// sequential execution.
	Workers int
	// ClusterBudget caps the worklist tuples each per-cluster engine may
	// process — the analogue of the paper's 15-minute timeout. A tuple is
	// one visit of a node of the cluster's contracted Prog_P skeleton, so
	// statements outside St_P cost nothing (see fscs.WithBudget). Zero
	// means unlimited.
	ClusterBudget int64
	// ClusterTimeout bounds the wall-clock time of each per-cluster
	// engine attempt — the paper's 15-minute timeout made literal. On
	// expiry the cluster walks the degradation ladder (see Retries). Zero
	// means no per-cluster deadline.
	ClusterTimeout time.Duration
	// RunTimeout bounds the wall-clock time of the whole per-cluster FSCS
	// stage; when it expires, clusters still running (or not yet started)
	// are demoted to the flow-insensitive fallback — the run completes
	// with degraded precision instead of erroring. Zero means no
	// whole-run deadline.
	RunTimeout time.Duration
	// Retries is the degradation ladder's retry count after a failed
	// attempt (budget, deadline or panic); each retry halves MaxCond and
	// ClusterBudget. Zero selects the default (1); negative disables
	// retries, demoting on the first failure.
	Retries int
	// Faults injects deterministic faults into chosen clusters — the
	// testing/chaos hook for the fault-tolerance layer. Nil injects
	// nothing. Faults apply to every solve, eager or at query time
	// (EnsureCluster). While the plan has any armed fault (Plan.Active),
	// the result cache is bypassed: injected behavior is attempt-local
	// by design.
	Faults *faults.Plan
	// MaxCond bounds constraint conjunctions (default 8).
	MaxCond int
	// Demand restricts the precise analysis to clusters containing at
	// least one pointer satisfying the predicate (the paper's
	// demand-driven mode). Nil analyzes every cluster.
	Demand func(*ir.Var) bool
	// Lazy defers all per-cluster FSCS work: no engines run during
	// AnalyzeProgram; a cluster is analyzed the first time one of its
	// pointers is queried. This is the paper's "ability to pick and
	// choose which clusters to explore ... adapted on-the-fly based on
	// the demands of the application".
	Lazy bool
	// HybridSizeLimit, when positive, enables the paper's hybrid mode:
	// clusters larger than the limit are not given the expensive FSCS
	// treatment — queries on their pointers answer from the
	// flow-insensitive Andersen result instead ("one may choose to engage
	// different pointer analysis methods to analyze different clusters
	// based on their sizes and access densities").
	HybridSizeLimit int
	// SteensPrecise enables the oversharing-resistant Steensgaard
	// variant: write-only sink variables no longer eagerly unify the
	// partitions copied into them; instead the sink joins each source's
	// partition through a post-fixpoint overlay, producing an overlapping
	// alias cover with measurably smaller maximum partitions. Sound per
	// the Theorem 7 overlap semantics the cascade already supports;
	// results may be strictly more precise than the default.
	SteensPrecise bool
	// Cache, when non-nil, warm-starts the per-cluster FSCS stage: before
	// a cluster is dispatched to an engine its slice fingerprint is looked
	// up, hits import the stored summary tables and points-to sets instead
	// of solving (bit-for-bit identical results, per Theorem 6), and
	// first-attempt healthy solves are stored back. The cache may be
	// shared across runs and programs; see package cache. Query-time
	// solves use it too; fault injection (Faults) bypasses it.
	Cache *cache.Cache
	// Tracer, when non-nil, records one span per cascade phase (parse,
	// Steensgaard, One-Flow, clustering, fallback, FSCS stage), per
	// scheduled cluster and ladder attempt (with cluster id, size, worker
	// and outcome — solved, cached or demoted), and per cache
	// probe/import/store, in the Chrome trace event format (see package
	// obs). Nil disables tracing; every span call is a nil-check no-op.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates the run's work counters and
	// histograms (worklist tuples, interning hits, cluster outcomes,
	// solve-time distribution, solver passes; see DESIGN.md §10). The
	// registry may be shared across runs — counters only ever add. Nil
	// disables; engines then skip even the end-of-run flush.
	Metrics *obs.Metrics
}

// andersenOpts is the Andersen solver configuration shared by the
// fallback analysis and the clustering solves: difference propagation,
// with wave fronts fanned across the worker pool unless Workers is 1.
func (cfg Config) andersenOpts() []andersen.Option {
	if cfg.Workers == 1 {
		return []andersen.Option{andersen.WithDeltaPropagation()}
	}
	return []andersen.Option{andersen.WithParallelSolve(cfg.Workers, 0)}
}

// steensOpts translates the config's partitioning knobs into Steensgaard
// options.
func (cfg Config) steensOpts() []steens.Option {
	if cfg.SteensPrecise {
		return []steens.Option{steens.Precise()}
	}
	return nil
}

// Timing records where the analysis spent its time, mirroring the columns
// of the paper's Table 1.
type Timing struct {
	Lower       time.Duration // frontend (parse + lower + devirtualize)
	Steensgaard time.Duration // partitioning
	OneFlow     time.Duration // optional cascade stage
	Clustering  time.Duration // Andersen clustering (refinement of oversized partitions), excluding waits on busy FSCS workers
	Fallback    time.Duration // whole-program flow-insensitive Andersen plus the call graph
	FSCS        time.Duration // total sequential per-cluster FSCS time
	Wall        time.Duration // wall-clock FSCS time (parallel)
	PerCluster  []time.Duration
}

// Analysis is a completed bootstrapped analysis with query access.
type Analysis struct {
	Prog      *ir.Program
	Steens    *steens.Analysis
	Andersen  *andersen.Analysis
	CallGraph *callgraph.Graph
	Clusters  []*cluster.Cluster
	Timing    Timing

	// Health reports, per selected cluster (sorted by cluster ID), how
	// its engine fared under the fault-tolerant scheduler: completed,
	// retried, recovered from a panic, served from the result cache, or
	// demoted to the fallback. Empty in Lazy mode, where engines run at
	// query time.
	Health []ClusterHealth

	// CacheStats is this run's window over Config.Cache's counters
	// (zero without a cache). Under concurrent runs sharing one cache
	// the window includes the other runs' traffic.
	CacheStats cache.Stats

	cfg Config
	// mu serializes engine access (engines are single-threaded). It is a
	// pointer because ApplyEdit transplants engines from the previous
	// analysis into its successor: both generations must serialize
	// through the same lock while old-snapshot queries drain.
	mu        *sync.Mutex
	engines   map[int]*fscs.Engine
	selected  map[int]*cluster.Cluster // clusters eligible for engines (lazy mode)
	byPointer map[ir.VarID][]int       // pointer -> cluster ids containing it

	// Query-time solve state (see query.go): in-flight single-flight
	// solves and the health of clusters solved on first touch.
	solving     map[int]*inflight
	queryHealth map[int]ClusterHealth

	// partBases caches, per Steensgaard partition (keyed by member
	// list), the partition's Algorithm-1 base slice. ApplyEdit consults
	// it to decide partition reuse without recomputing the slice and
	// refreshes it for the successor analysis; nil after a from-scratch
	// run (ApplyEdit then computes bases on first use).
	partBases map[string]*cluster.Cluster
}

// AnalyzeSource parses, lowers and analyzes CPL source text.
func AnalyzeSource(src string, cfg Config) (*Analysis, error) {
	return AnalyzeSourceContext(context.Background(), src, cfg)
}

// AnalyzeSourceContext is AnalyzeSource under a cancellation context (see
// AnalyzeProgramContext).
func AnalyzeSourceContext(ctx context.Context, src string, cfg Config) (*Analysis, error) {
	// The frontend phase is timed directly: deriving it by subtracting
	// the other stages from the total underflows once stages overlap
	// wall-clock (parallel FSCS makes Wall < FSCS).
	t0 := time.Now()
	sp := cfg.Tracer.Start("phase", "parse", obs.TIDMain).Arg("bytes", len(src))
	prog, err := frontend.LowerSource(src)
	if err != nil {
		sp.Arg("error", err.Error()).End()
		return nil, err
	}
	sp.Arg("vars", prog.NumVars()).End()
	lower := time.Since(t0)
	a, err := AnalyzeProgramContext(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	a.Timing.Lower = lower
	return a, nil
}

// AnalyzeProgram runs the full bootstrap cascade over an IR program. The
// program may still contain indirect-call placeholders; they are
// devirtualized with Steensgaard-resolved targets first.
func AnalyzeProgram(prog *ir.Program, cfg Config) (*Analysis, error) {
	return AnalyzeProgramContext(context.Background(), prog, cfg)
}

// AnalyzeProgramContext is AnalyzeProgram under a cancellation context.
// Cancelling ctx aborts the run with ctx's error. Deadlines configured in
// cfg (RunTimeout, ClusterTimeout) are softer: they degrade clusters to
// the flow-insensitive fallback and the analysis still completes, every
// query remaining sound.
//
// Every configuration runs the same two stages: the front end streams
// the cover while the fallback is computed (startFront), and the cluster
// executor selects and solves each cluster as it arrives (execute).
func AnalyzeProgramContext(ctx context.Context, prog *ir.Program, cfg Config) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	planDefaults(&cfg)
	pl, clusters, ready, err := startFront(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	a := newAnalysis(prog, cfg)
	if _, err := a.execute(ctx, pl, clusters, ready, nil); err != nil {
		return nil, err
	}
	return a, nil
}

func maxCondOrDefault(n int) int {
	if n <= 0 {
		return 8
	}
	return n
}

// buildWithOneFlow refines the oversized judgement with One-Flow: an
// oversized Steensgaard partition whose largest One-Flow refinement is
// within the threshold is split along the One-Flow refinement instead of
// paying for an Andersen run.
func buildWithOneFlow(prog *ir.Program, sa *steens.Analysis, of *oneflow.Analysis, threshold int, aopts []andersen.Option) []*cluster.Cluster {
	var out []*cluster.Cluster
	andersenCover := cluster.BuildAndersen(prog, sa, threshold, aopts...)
	// BuildAndersen already keeps small partitions; reuse it, but first
	// check the One-Flow split for the oversized ones. For simplicity the
	// One-Flow stage only changes which partitions get the expensive
	// Andersen treatment; correctness is unchanged (both are alias
	// covers). When One-Flow refines an oversized partition into pieces
	// within the threshold, those pieces are used directly.
	// partKey identifies a partition by the base representative of its
	// first non-sink member. Under the precise-Steensgaard overlapping
	// cover, a multi-membership sink's Rep points at its *base* partition,
	// so keying blindly by element 0 could collide two distinct expanded
	// partitions and drop a needed Andersen cluster. Non-sink members are
	// unambiguous; a group with no non-sink member (all overlay sinks)
	// gets no key and is never replaced — keeping it is sound, merely
	// redundant.
	partKey := func(vs []ir.VarID) int {
		for _, v := range vs {
			if sa.SinkClasses(v) == nil {
				return sa.Rep(v)
			}
		}
		return -1
	}
	refined := map[int]bool{}
	for _, part := range sa.Partitions() {
		if len(part) <= threshold {
			continue
		}
		key := partKey(part)
		if key < 0 {
			continue
		}
		pieces := of.Refine(part)
		max := 0
		for _, p := range pieces {
			if len(p) > max {
				max = len(p)
			}
		}
		if max <= threshold && len(pieces) > 1 {
			refined[key] = true
			for _, piece := range pieces {
				out = append(out, cluster.New(prog, sa, len(out), cluster.KindOneFlow, piece))
			}
		}
	}
	for _, c := range andersenCover {
		if len(c.Pointers) > 0 && c.Kind == cluster.KindAndersen {
			if key := partKey(c.Pointers); key >= 0 && refined[key] {
				continue // replaced by One-Flow pieces
			}
		}
		cc := *c
		cc.ID = len(out)
		out = append(out, &cc)
	}
	return out
}

// Engine returns the FSCS engine of a cluster: nil if the cluster was
// not selected, was demoted, or has not been solved yet (a lazy cluster
// solves on its first query, or through EnsureCluster).
func (a *Analysis) Engine(clusterID int) *fscs.Engine {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.engines[clusterID]
}

// ClustersOf returns the IDs of the analyzed clusters containing p.
func (a *Analysis) ClustersOf(p ir.VarID) []int { return a.byPointer[p] }

// The classic queries below answer exactly like their context-first
// twins in query.go (MayAliasContext, ...) with no deadline: cold
// clusters solve on first touch through EnsureCluster, in every mode.

// MayAlias reports whether p and q may alias at loc (see MayAliasContext).
func (a *Analysis) MayAlias(p, q ir.VarID, loc ir.Loc) bool {
	may, _ := a.MayAliasContext(context.Background(), p, q, loc)
	return may
}

// MustAlias reports whether p and q must alias at loc (see
// MustAliasContext).
func (a *Analysis) MustAlias(p, q ir.VarID, loc ir.Loc) bool {
	must, _ := a.MustAliasContext(context.Background(), p, q, loc)
	return must
}

// PointsTo returns the objects p may reference at loc and whether the
// answer is precise (see PointsToContext).
func (a *Analysis) PointsTo(p ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	return a.PointsToContext(context.Background(), p, loc)
}

// DerefState resolves what a dereference of p at loc may observe (see
// DerefStateContext).
func (a *Analysis) DerefState(p ir.VarID, loc ir.Loc) (objs []ir.VarID, mayNull, mayUninit, precise bool) {
	return a.DerefStateContext(context.Background(), p, loc)
}

// Aliases returns the pointers that may alias p at loc: the union of the
// per-cluster alias sets (condition (ii) of Section 2).
func (a *Analysis) Aliases(p ir.VarID, loc ir.Loc) []ir.VarID {
	set := map[ir.VarID]bool{}
	for _, id := range a.byPointer[p] {
		eng, _, _ := a.EnsureCluster(context.Background(), id)
		if eng == nil {
			continue
		}
		a.mu.Lock()
		for _, q := range eng.Aliases(p, loc) {
			set[q] = true
		}
		a.mu.Unlock()
	}
	return sortedVars(set)
}

// ValuesInContext returns the objects p may reference at loc when reached
// via the given call path (fully flow- AND context-sensitive), unioned
// over p's clusters. The boolean reports precision.
func (a *Analysis) ValuesInContext(p ir.VarID, loc ir.Loc, ctx fscs.Context) ([]ir.VarID, bool, error) {
	set := map[ir.VarID]bool{}
	precise := true
	found := false
	for _, id := range a.byPointer[p] {
		eng, _, _ := a.EnsureCluster(context.Background(), id)
		if eng == nil {
			continue
		}
		a.mu.Lock()
		objs, ok, err := eng.ValuesInContext(p, loc, ctx)
		a.mu.Unlock()
		if err != nil {
			return nil, false, err
		}
		found = true
		precise = precise && ok
		for _, o := range objs {
			set[o] = true
		}
	}
	if !found {
		return a.fallbackPointsTo(p), false, nil
	}
	return sortedVars(set), precise, nil
}

// MustAliasInContext reports whether p and q must alias at loc in the
// given call path, via any analyzed cluster containing both.
func (a *Analysis) MustAliasInContext(p, q ir.VarID, loc ir.Loc, ctx fscs.Context) (bool, error) {
	for _, id := range a.byPointer[p] {
		eng, _, _ := a.EnsureCluster(context.Background(), id)
		if eng == nil {
			continue
		}
		a.mu.Lock()
		has := eng.Cluster().HasPointer(q)
		var ok bool
		var err error
		if has {
			ok, err = eng.MustAliasInContext(p, q, loc, ctx)
		}
		a.mu.Unlock()
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// fallbackPointsTo returns p's flow-insensitive points-to set.
func (a *Analysis) fallbackPointsTo(p ir.VarID) []ir.VarID {
	var objs []ir.VarID
	a.Andersen.PointsToSet(p).ForEach(func(o int) bool {
		objs = append(objs, ir.VarID(o))
		return true
	})
	return objs
}

// sortedVars returns the members of set in ascending order.
func sortedVars(set map[ir.VarID]bool) []ir.VarID {
	out := make([]ir.VarID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SimulateParallel reproduces the paper's experiment setup: distribute the
// clusters into k parts with the greedy heuristic (accumulate clusters
// until a part's pointer count reaches total/k), time each part as the sum
// of its per-cluster times, and return the maximum over parts — the
// simulated wall-clock on k machines.
func SimulateParallel(clusters []*cluster.Cluster, times []time.Duration, k int) time.Duration {
	if len(clusters) == 0 || k <= 0 {
		return 0
	}
	total := 0
	for _, c := range clusters {
		total += c.Size()
	}
	perPart := total / k
	if perPart == 0 {
		perPart = 1
	}
	var maxPart, curTime time.Duration
	curSize := 0
	for i, c := range clusters {
		curSize += c.Size()
		if i < len(times) {
			curTime += times[i]
		}
		if curSize >= perPart {
			if curTime > maxPart {
				maxPart = curTime
			}
			curSize, curTime = 0, 0
		}
	}
	if curTime > maxPart {
		maxPart = curTime
	}
	return maxPart
}
