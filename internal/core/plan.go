package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/oneflow"
	"bootstrap/internal/steens"
)

// Plan is the front end's product: everything the per-cluster FSCS
// stage needs before any engine has run — the lowered (devirtualized)
// program, the Steensgaard base analysis, the flow-insensitive fallback,
// the call graph, and the alias cover with its final cluster IDs.
// startFront fills it while the executor is already consuming the
// cover; ApplyEdit assembles one for the edited program from the
// previous cover and hands it to the same executor. Every builder is
// deterministic, so the same program under the same Config always
// yields the same cover with the same cluster IDs.
type Plan struct {
	Prog      *ir.Program
	Steens    *steens.Analysis
	Andersen  *andersen.Analysis
	CallGraph *callgraph.Graph
	Clusters  []*cluster.Cluster

	// Timing covers the front-end stages (Steensgaard, One-Flow,
	// Clustering, Fallback); the executor copies it into the Analysis
	// and adds the FSCS stage.
	Timing Timing
}

// planDefaults normalizes the config knobs the analyze and edit entry
// points depend on.
func planDefaults(cfg *Config) {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.AndersenThreshold == 0 {
		cfg.AndersenThreshold = cluster.DefaultAndersenThreshold
	}
}

// steensFront runs the Steensgaard base stage: analyze, devirtualize
// indirect calls with the resolved targets, and re-analyze when the
// program changed.
func steensFront(prog *ir.Program, cfg Config) (*steens.Analysis, error) {
	sa := steens.Analyze(prog, cfg.steensOpts()...)
	if frontend.HasIndirectCalls(prog) {
		if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID {
			return sa.Targets(fp)
		}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		sa = steens.Analyze(prog, cfg.steensOpts()...)
	}
	return sa, nil
}

// newAnalysis allocates the Analysis shell with its query-state maps.
func newAnalysis(prog *ir.Program, cfg Config) *Analysis {
	return &Analysis{
		Prog:        prog,
		cfg:         cfg,
		mu:          &sync.Mutex{},
		engines:     map[int]*fscs.Engine{},
		selected:    map[int]*cluster.Cluster{},
		byPointer:   map[ir.VarID][]int{},
		solving:     map[int]*inflight{},
		queryHealth: map[int]ClusterHealth{},
	}
}

// startFront runs the cascade's front end for AnalyzeProgramContext
// (ApplyEdit rebuilds its cover incrementally instead). Steensgaard
// (plus devirtualization) and the optional One-Flow stage run inline.
// Then two goroutines start: one computes the flow-insensitive fallback
// and the call graph, the other delivers the alias cover over the
// returned channel in final ID order. The plain
// Andersen cascade streams it partition by partition
// (cluster.StreamAndersen); every other cover is built whole and then
// fed. Each delivered cluster is appended to pl.Clusters; pl.Clusters and
// pl.Timing.Clustering are final once the channel is closed, and
// pl.Andersen, pl.CallGraph and pl.Timing.Fallback once ready is closed.
// Timing.Clustering charges only the cover's own work: time spent
// blocked handing a cluster to busy FSCS workers is back-pressure from
// the solve, not clustering, and is left out.
//
// The cover is built under the caller's ctx, never the RunTimeout
// context: RunTimeout degrades FSCS precision per cluster but must not
// truncate the cover, or queries on missing clusters would be unsound.
func startFront(ctx context.Context, prog *ir.Program, cfg Config) (*Plan, <-chan *cluster.Cluster, <-chan struct{}, error) {
	if int(cfg.Mode) >= len(modeNames) {
		return nil, nil, nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	pl := &Plan{Prog: prog}
	tr := cfg.Tracer
	tr.NameThread(obs.TIDMain, "cascade")

	t0 := time.Now()
	sp := tr.Start("phase", "steensgaard", obs.TIDMain)
	sa, err := steensFront(prog, cfg)
	if err != nil {
		sp.End()
		return nil, nil, nil, err
	}
	pl.Steens = sa
	sp.Arg("partitions", sa.NumPartitions()).Arg("max_partition", sa.MaxPartitionSize()).End()
	sa.Record(cfg.Metrics)
	pl.Timing.Steensgaard = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("core: analysis cancelled: %w", err)
	}

	var of *oneflow.Analysis
	if cfg.UseOneFlow {
		t := time.Now()
		sp := tr.Start("phase", "oneflow", obs.TIDMain)
		of = oneflow.AnalyzeWith(prog, sa)
		sp.End()
		pl.Timing.OneFlow = time.Since(t)
	}

	ready := make(chan struct{})
	tr.NameThread(obs.TIDFallback, "fallback")
	go func() {
		defer close(ready)
		t := time.Now()
		sp := tr.Start("phase", "fallback", obs.TIDFallback)
		pl.Andersen = andersen.Analyze(prog,
			append(cfg.andersenOpts(), andersen.WithTracer(tr, obs.TIDFallback))...)
		pl.CallGraph = callgraph.Build(prog)
		sp.End()
		pl.Timing.Fallback = time.Since(t)
		pl.Andersen.SolverStats().Record(cfg.Metrics)
	}()

	t1 := time.Now()
	csp := tr.Start("phase", "clustering", obs.TIDMain).Arg("mode", cfg.Mode.String())
	// One cluster of lookahead per FSCS worker, so a worker that finishes
	// a job finds the next one already delivered.
	clusters := make(chan *cluster.Cluster, cfg.Workers)
	go func() {
		defer close(clusters)
		var blocked time.Duration // waiting on the executor to take a cluster
		emit := func(cs ...*cluster.Cluster) {
			for _, c := range cs {
				pl.Clusters = append(pl.Clusters, c)
				t := time.Now()
				clusters <- c
				blocked += time.Since(t)
			}
		}
		switch {
		case cfg.Mode == ModeNone:
			emit(cluster.BuildWhole(prog, sa))
		case cfg.Mode == ModeSteensgaard:
			emit(cluster.BuildSteensgaard(prog, sa)...)
		case cfg.Mode == ModeSyntactic:
			emit(cluster.BuildSyntactic(prog, sa)...)
		case of != nil:
			emit(buildWithOneFlow(prog, sa, of, cfg.AndersenThreshold, cfg.andersenOpts())...)
		default:
			for c := range cluster.StreamAndersen(obs.ContextWithTracer(ctx, tr), prog, sa,
				cfg.AndersenThreshold, cfg.Workers, cfg.andersenOpts()...) {
				emit(c)
			}
		}
		pl.Timing.Clustering = time.Since(t1) - blocked
		csp.Arg("clusters", len(pl.Clusters)).End()
	}()
	return pl, clusters, ready, nil
}
