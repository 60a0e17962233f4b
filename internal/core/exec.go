package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/cluster"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// readyNow is the ready signal of a plan whose fallback and call graph
// are already computed (ApplyEdit's).
var readyNow = func() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// sliceStream feeds an already built cover (ApplyEdit's) to the
// executor.
func sliceStream(cs []*cluster.Cluster) <-chan *cluster.Cluster {
	ch := make(chan *cluster.Cluster, len(cs))
	for _, c := range cs {
		ch <- c
	}
	close(ch)
	return ch
}

// selects reports whether a cluster gets the precise FSCS treatment. The
// hybrid size cut-off leaves oversized clusters to the flow-insensitive
// answer; demand-driven mode keeps only clusters holding a pointer the
// application asked about. Both are local predicates, so a streamed
// cover is filtered without waiting for it to complete.
func (cfg Config) selects(prog *ir.Program, c *cluster.Cluster) bool {
	if cfg.HybridSizeLimit > 0 && c.Size() > cfg.HybridSizeLimit {
		return false
	}
	if cfg.Demand == nil {
		return true
	}
	for _, v := range c.Pointers {
		if cfg.Demand(prog.Var(v)) {
			return true
		}
	}
	return false
}

// execute is the cascade's one cluster executor; both entry points
// (AnalyzeProgramContext, with eager, lazy and demand selection, and
// ApplyEdit) are scheduling policies over it. It consumes the cluster
// stream with a fixed pool of cfg.Workers goroutines, which wait for
// ready (pl.Andersen and pl.CallGraph set) before their first solve.
// Each streamed cluster that cfg selects is indexed for queries and,
// when solve reports true, solved through the fault-tolerant ladder
// (RunCluster) on the worker's own trace track under the RunTimeout
// context. A nil solve solves every selected cluster unless cfg.Lazy,
// where engines run at query time.
//
// Once the stream is drained and the workers are done, a adopts pl's
// analyses, cover and front-end timing, records the solved engines
// (deselecting demoted clusters, whose queries then answer from the
// fallback), their health — as query-time health under cfg.Lazy — and
// the run's cache-stats window. It returns the health of the solved
// clusters in stream order. Per-cluster results land in per-job slots,
// so the outcome does not depend on the worker count.
func (a *Analysis) execute(ctx context.Context, pl *Plan, clusters <-chan *cluster.Cluster,
	ready <-chan struct{}, solve func(*cluster.Cluster) bool) ([]ClusterHealth, error) {
	cfg := a.cfg
	if solve == nil {
		solve = func(*cluster.Cluster) bool { return !cfg.Lazy }
	}
	var cacheBefore cache.Stats
	if cfg.Cache != nil {
		cacheBefore = cfg.Cache.Stats()
	}
	runCtx := ctx
	if cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.RunTimeout)
		defer cancel()
	}

	type slot struct {
		c   *cluster.Cluster
		eng *fscs.Engine
		h   ClusterHealth
	}
	tr := cfg.Tracer
	t0 := time.Now()
	fsp := tr.Start("phase", "fscs", obs.TIDMain).Arg("workers", cfg.Workers)
	jobs := make(chan *slot, cfg.Workers) // one queued job per worker
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		tr.NameThread(obs.WorkerTID(w), fmt.Sprintf("fscs-worker-%d", w))
		go func(w int) {
			defer wg.Done()
			<-ready
			wctx := obs.ContextWithWorker(runCtx, w)
			for s := range jobs {
				s.eng, s.h = RunCluster(wctx, pl.Prog, pl.CallGraph, pl.Steens, s.c, pl.Andersen, cfg)
			}
		}(w)
	}
	var slots []*slot
	for c := range clusters {
		if !cfg.selects(pl.Prog, c) {
			continue
		}
		a.selected[c.ID] = c
		for _, p := range c.Pointers {
			a.byPointer[p] = append(a.byPointer[p], c.ID)
		}
		if solve(c) {
			s := &slot{c: c}
			slots = append(slots, s)
			jobs <- s
		}
	}
	close(jobs)
	wg.Wait()
	<-ready
	fsp.Arg("clusters", len(slots)).End()
	a.Steens, a.Andersen, a.CallGraph, a.Clusters = pl.Steens, pl.Andersen, pl.CallGraph, pl.Clusters
	a.Timing = pl.Timing
	a.Timing.Wall = time.Since(t0)
	if err := ctx.Err(); err != nil {
		// Explicit caller cancellation aborts; cfg deadlines never land
		// here (runCtx expiring only degrades clusters).
		return nil, fmt.Errorf("core: analysis cancelled: %w", err)
	}

	healths := make([]ClusterHealth, len(slots))
	a.Timing.PerCluster = make([]time.Duration, len(slots))
	for i, s := range slots {
		if s.eng != nil {
			a.engines[s.c.ID] = s.eng
		} else {
			// Permanently demoted: deselect so lazy queries cannot
			// resurrect the engine.
			delete(a.selected, s.c.ID)
		}
		healths[i] = s.h
		a.Timing.PerCluster[i] = s.h.Elapsed
		a.Timing.FSCS += s.h.Elapsed
		if cfg.Lazy {
			a.queryHealth[s.c.ID] = s.h
		} else {
			a.Health = append(a.Health, s.h)
		}
	}
	sort.Slice(a.Health, func(i, j int) bool { return a.Health[i].ClusterID < a.Health[j].ClusterID })
	if cfg.Cache != nil {
		a.CacheStats = cfg.Cache.Stats().Sub(cacheBefore)
	}
	return healths, nil
}
