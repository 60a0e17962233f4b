package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
)

// servedReplay is what an in-process replay of the served operation
// stream leaves behind.
type servedReplay struct {
	front     *front
	a         *core.Analysis
	cache     *cache.Cache
	queries   int
	cold      int
	dirty     float64 // summed dirty share of the cover, over edits
	edits     int
	fallbacks int
}

// replayServed replays the served workload in-process, one span per
// call: lowering; the cascade's front end layer by layer (what loading a
// snapshot computes); the lazy analysis the server would hold; then the
// answered operation stream in start order. A query is the
// needs-solve check, a first-touch EnsureCluster for each unsolved
// cluster of its pointer, and the query itself. An edit updates the
// benchmark's own copy of the program (Program.Clone, then
// ir.ApplyEdits) and the analysis (core.ApplyEdit).
func replayServed(tr *tracer, src string, stream []*op) (*servedReplay, error) {
	var prog *ir.Program
	var err error
	tr.do("frontend.lower", -1, func() { prog, err = frontend.LowerSource(src) })
	if err != nil {
		return nil, err
	}
	var layered, lazy *ir.Program
	tr.do("ir.clone", -1, func() { layered = prog.Clone() })
	sr := &servedReplay{cache: cache.New(cache.Options{})}
	if sr.front, err = replayFront(tr, layered); err != nil {
		return nil, err
	}
	// The server's analysis configuration, with one worker.
	cfg := analysisConfig()
	cfg.Workers = 1
	cfg.Lazy = true
	cfg.Cache = sr.cache
	cfg.ClusterTimeout = 2 * queryTimeout
	tr.do("ir.clone", -1, func() { lazy = prog.Clone() })
	tr.do("core.load", -1, func() { sr.a, err = core.AnalyzeProgram(lazy, cfg) })
	if err != nil {
		return nil, err
	}

	own := prog
	for i, o := range stream {
		if o.edit != nil {
			edits := []ir.Edit{*o.edit}
			var next *ir.Program
			tr.do("ir.clone", i, func() { next = own.Clone() })
			tr.do("ir.apply_edits", i, func() { _, err = ir.ApplyEdits(next, edits) })
			if err != nil {
				return nil, fmt.Errorf("replay edit %d: %w", i, err)
			}
			own = next
			var a2 *core.Analysis
			var rep *core.EditReport
			tr.do("core.applyedit", i, func() { a2, rep, err = core.ApplyEdit(sr.a, edits) })
			if err != nil {
				return nil, fmt.Errorf("replay edit %d: %w", i, err)
			}
			sr.a = a2
			sr.edits++
			if rep.Clusters > 0 {
				sr.dirty += float64(rep.Dirty) / float64(rep.Clusters)
			}
			if rep.FellBack {
				sr.fallbacks++
			}
			continue
		}
		sr.queries++
		q := o.q
		ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
		var needs bool
		tr.do("core.needs_solve", i, func() {
			if q.mayAlias {
				needs = sr.a.MayAliasNeedsSolve(q.p, q.q)
			} else {
				needs = sr.a.PointsToNeedsSolve(q.p)
			}
		})
		if needs {
			sr.cold++
			for _, id := range sr.a.ClustersOf(q.p) {
				if !sr.a.ClusterSolved(id) {
					tr.do("core.ensure_cluster", i, func() { sr.a.EnsureCluster(ctx, id) })
				}
			}
		}
		tr.do("core.query", i, func() { ask(ctx, sr.a, q) })
		cancel()
	}
	return sr, nil
}

// traceServed is the served workload's traced phase: the served loop's
// own counters, then the in-process replay of its answered operations,
// traced and again untraced.
func traceServed(o options, out *outcome, src string, r *servedRun) error {
	shed, coalesced, warm, answered := 0, 0, 0, 0
	var stream []*op
	for _, op := range r.ops {
		if op.status == http.StatusTooManyRequests {
			shed++
		}
		if !op.ok() {
			continue
		}
		stream = append(stream, op)
		if op.edit != nil {
			if op.coalesced {
				coalesced++
			}
			continue
		}
		answered++
		if op.warm {
			warm++
		}
	}
	out.set("serve.shed", float64(shed))
	out.set("serve.coalesced_edits", float64(coalesced))
	if answered > 0 {
		out.set("serve.warm_frac", float64(warm)/float64(answered))
	}

	replay := func(tr *tracer) (*servedReplay, time.Duration, error) {
		runtime.GC()
		t := time.Now()
		root := tr.begin("replay", -1)
		sr, err := replayServed(tr, src, stream)
		tr.end(root)
		return sr, time.Since(t), err
	}
	tr := newTracer(true)
	sr, _, err := replay(tr)
	if err != nil {
		return err
	}
	setFrontMetrics(out, tr, sr.front, fscsStats{})
	stats := tr.byName()
	if st := stats["ir.apply_edits"]; st != nil {
		out.set("ir.apply_edits_us", us(st.self))
	}
	applied := tr.durations("core.applyedit")
	out.set("core.applyedit_p50_ms", quantile(applied, 0.5))
	out.set("core.applyedit_p90_ms", quantile(applied, 0.9))
	if sr.edits > 0 {
		out.set("core.edit_dirty_frac", sr.dirty/float64(sr.edits))
	}
	out.set("core.edit_fallbacks", float64(sr.fallbacks))
	var qlat []float64
	for _, d := range tr.perID("core.needs_solve", "core.ensure_cluster", "core.query") {
		qlat = append(qlat, us(d))
	}
	p50 := quantile(qlat, 0.5)
	out.set("core.query_p50_us", p50)
	out.set("core.query_p99_us", quantile(qlat, 0.99))
	if sr.queries > 0 {
		out.set("core.cold_query_frac", float64(sr.cold)/float64(sr.queries))
	}
	setLayerTime(out, stats, "core.ensure_cluster_ms", "", "core.ensure_cluster")
	served, _ := r.latencies()
	out.set("serve.overhead_p50_us", quantile(served, 0.5)-p50)
	var busy time.Duration
	demoted, retries := 0, 0
	for _, h := range sr.a.QueryHealth() {
		busy += h.Elapsed
		if h.Demoted {
			demoted++
		}
		retries += max(h.Attempts-1, 0)
	}
	out.set("core.fscs_busy_ms", ms(busy))
	out.set("core.demoted", float64(demoted))
	out.set("core.ladder_retries", float64(retries))
	st := sr.cache.Stats()
	out.set("cache.hit_ratio", st.HitRate())
	if n := sr.cache.Len(); n > 0 {
		out.set("cache.entry_kb", float64(sr.cache.Bytes())/1024/float64(n))
	}
	sr = nil

	_, untraced, err := replay(newTracer(false))
	if err != nil {
		return err
	}
	setTraceMetrics(out, tr, untraced)
	if err := tr.write(o.traceOut); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
