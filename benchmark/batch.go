package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/core"
	"bootstrap/internal/ir"
)

// The batch workload: the eager cascade over one program with no cache.
// After the timed analyses, a seeded query sample and a chain of seeded
// single-statement edits run against the last analysis.

const (
	// minAnalyses is the fewest timed analyses a batch run makes, however
	// short its budget; analyze_s is their median.
	minAnalyses = 3
	// batchQueries is the size of the seeded in-process query sample,
	// timed in queryChunks consecutive chunks.
	batchQueries = 20000
	queryChunks  = 10
	// batchEdits is the length of the seeded ApplyEdit chain.
	batchEdits = 150
)

// answer is one query's result.
type answer struct {
	objs    []ir.VarID // points-to queries
	alias   bool       // may-alias queries
	precise bool
}

func ask(ctx context.Context, a *core.Analysis, q query) answer {
	loc := a.Prog.Func(q.at).Exit
	if q.mayAlias {
		alias, precise := a.MayAliasContext(ctx, q.p, q.q, loc)
		return answer{alias: alias, precise: precise}
	}
	objs, precise := a.PointsToContext(ctx, q.p, loc)
	return answer{objs: objs, precise: precise}
}

func runColdBatch(w workload, o options, log io.Writer) (*outcome, error) {
	ph := newPhases()
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	var prog *ir.Program // lowered, never analyzed: every analysis clones it
	setup, err := repeatMedian(func() (time.Duration, error) {
		var d time.Duration
		var err error
		prog, d, err = lower(src)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	ph.done("setup")
	out := newOutcome()
	out.set("setup_s", setup)

	var a *core.Analysis
	if o.trace {
		a, err = traceBatch(o, out, src, prog)
	} else {
		a, err = timeBatch(o, out, prog)
	}
	if err != nil {
		return nil, err
	}
	ph.done("timed")
	printShape(log, w, a.Prog, a.Steens, a.Clusters)

	lat, degraded := batchQueryPhase(out, a, o)
	p50, p99 := chunkedQuantile(lat, queryChunks, 0.5), chunkedQuantile(lat, queryChunks, 0.99)
	out.set("query_p50_us", p50)
	out.set("query_p99_us", p99)
	if o.trace {
		out.set("core.query_p50_us", p50)
		out.set("core.query_p99_us", p99)
	}
	ph.done("queries")
	edits := batchEditPhase(out, a, o)
	out.set("edit_p50_ms", quantile(edits, 0.5))
	out.set("edit_p90_ms", quantile(edits, 0.9))
	ph.done("edits")
	ph.print(log)

	setFractions(out, degraded, len(lat))
	return out, out.finish(o.trace)
}

// timeBatch is the untraced timed phase: eager analyses of fresh copies
// of the program until the budget is spent (at least minAnalyses).
func timeBatch(o options, out *outcome, prog *ir.Program) (*core.Analysis, error) {
	var a *core.Analysis
	var times []float64
	var retained uint64
	budget := time.Duration(o.seconds * float64(time.Second))
	hs := startHeapSampler(0)
	start := time.Now()
	for len(times) < minAnalyses || time.Since(start) < budget {
		p := prog.Clone()
		a = nil
		// Every analysis starts from the same collected heap, and its lap
		// ends with its own result collected and still reachable.
		runtime.GC()
		hs.skip()
		t := time.Now()
		var err error
		a, err = core.AnalyzeProgram(p, analysisConfig())
		d := time.Since(t)
		if err != nil {
			hs.Stop()
			return nil, fmt.Errorf("analyze: %w", err)
		}
		retained = retainedHeap()
		hs.observe(retained)
		hs.lap()
		times = append(times, d.Seconds())
		countClusters(out, a)
	}
	peak := hs.Stop()

	analyze := median(times)
	out.set("analyze_s", analyze)
	out.set("ops_per_s", float64(len(a.Health))/analyze)
	out.set("peak_heap_mb", peak)
	out.set("retained_heap_mb", float64(retained)/mib)
	return a, nil
}

// countClusters books one analysis' clusters as operations and checks
// that each is healthy: one that was retried, recovered, demoted to the
// fallback or errored fails.
func countClusters(out *outcome, a *core.Analysis) {
	for _, h := range a.Health {
		out.attempted++
		if h.Status != core.HealthOK {
			out.checkFail("cluster %d finished %s", h.ClusterID, h.Status)
		}
	}
}

// batchQueryPhase times a seeded query sample against the analysis and
// checks every answer against a separately computed flow-insensitive
// Andersen solution (exact ⊆ FSCS ⊆ Andersen).
func batchQueryPhase(out *outcome, a *core.Analysis, o options) (lat []float64, degraded int) {
	ref := andersen.Analyze(a.Prog)
	qs := newQuerySampler(a)
	rng := rand.New(rand.NewSource(o.seed))
	ctx := context.Background()
	corrupt := o.corrupt
	for i := 0; i < batchQueries; i++ {
		q := qs.draw(rng)
		t := time.Now()
		got := ask(ctx, a, q)
		lat = append(lat, us(time.Since(t)))
		out.attempted++
		if !got.precise {
			degraded++
		}
		if corrupt && !q.mayAlias {
			got, corrupt = corruptAnswer(a.Prog, got, ref.PointsTo(q.p)), false
		}
		checkWithin(out, a.Prog, q, got, ref)
	}
	return lat, degraded
}

// chunkedQuantile splits xs, in order, into n chunks and returns the
// median over the chunks of each chunk's q-quantile: a burst of
// interference (a collection, a stolen CPU) moves one chunk, not the
// result.
func chunkedQuantile(xs []float64, n int, q float64) float64 {
	var per []float64
	size := max(1, (len(xs)+n-1)/n)
	for lo := 0; lo < len(xs); lo += size {
		per = append(per, quantile(xs[lo:min(lo+size, len(xs))], q))
	}
	return median(per)
}

// batchEditPhase applies a seeded chain of single-statement edits through
// core.ApplyEdit and returns each call's latency in milliseconds.
func batchEditPhase(out *outcome, a *core.Analysis, o options) []float64 {
	rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	var lat []float64
	var dirty float64
	fallbacks := 0
	for _, e := range seededEdits(a.Prog, rng, batchEdits) {
		out.attempted++
		t := time.Now()
		a2, rep, err := core.ApplyEdit(a, []ir.Edit{e})
		d := time.Since(t)
		if err != nil {
			out.checkFail("edit at L%d: %v", e.Loc, err)
			continue
		}
		a = a2
		lat = append(lat, ms(d))
		if rep.Clusters > 0 {
			dirty += float64(rep.Dirty) / float64(rep.Clusters)
		}
		if rep.FellBack {
			fallbacks++
		}
	}
	if o.trace && len(lat) > 0 {
		out.set("core.applyedit_p50_ms", quantile(lat, 0.5))
		out.set("core.applyedit_p90_ms", quantile(lat, 0.9))
		out.set("core.edit_dirty_frac", dirty/float64(len(lat)))
		out.set("core.edit_fallbacks", float64(fallbacks))
	}
	return lat
}

// setFractions sets the failure and precision shares from the outcome's
// counts: ok_frac/precise_frac end to end, failed_frac/degraded_frac per
// layer.
func setFractions(out *outcome, degraded, answered int) {
	failed := 0.0
	if out.attempted > 0 {
		failed = float64(out.failed) / float64(out.attempted)
	}
	deg := 0.0
	if answered > 0 {
		deg = float64(degraded) / float64(answered)
	}
	out.set("ok_frac", 1-failed)
	out.set("precise_frac", 1-deg)
	out.set("failed_frac", failed)
	out.set("degraded_frac", deg)
}
