package core

import (
	"context"
	"sort"

	"bootstrap/internal/cluster"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
)

// This file is the context-first query surface, the one query path of
// an Analysis: the classic methods in core.go (MayAlias, PointsTo, ...)
// forward here with no deadline. A cluster solves at most once, through
// the fault-tolerant RunCluster ladder and the result cache, whether the
// run is eager or lazy — concurrent first touches coalesce into one
// solve (single flight) — and a query degrades to the flow-insensitive
// fallback when the caller's context expires before the solve lands,
// instead of blocking or erroring.

// inflight is one single-flight cluster solve. done is closed when the
// solve finished (successfully or demoted); eng/health are valid after.
type inflight struct {
	done   chan struct{}
	eng    *fscs.Engine
	health ClusterHealth
}

// EnsureCluster solves (or imports from Config.Cache) the engine of
// cluster id at most once, through the same fault-tolerant degradation
// ladder the eager scheduler uses. Safe for concurrent use: concurrent
// calls on a cold cluster coalesce into a single solve, and every caller
// blocks until the solve finishes or ctx is done.
//
// The returned bool reports whether the cluster's final state was
// reached: false means ctx expired while the solve was still running —
// the solve continues in the background for future callers, and the
// caller should degrade to the flow-insensitive fallback for this query.
// When it is true, a nil engine means the cluster was demoted (or never
// selected); queries answer from the fallback, permanently.
//
// The solve itself runs detached from ctx so one impatient caller cannot
// kill work other callers are waiting on; Config.ClusterTimeout bounds
// each ladder attempt as usual.
func (a *Analysis) EnsureCluster(ctx context.Context, id int) (*fscs.Engine, ClusterHealth, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.mu.Lock()
	if eng, ok := a.engines[id]; ok {
		h := a.queryHealth[id]
		h.ClusterID = id
		a.mu.Unlock()
		return eng, h, true
	}
	c, selected := a.selected[id]
	if !selected {
		// Demoted earlier, or never part of the analyzed cover: the
		// fallback answer is the cluster's final state.
		h := a.queryHealth[id]
		h.ClusterID = id
		h.Demoted = true
		a.mu.Unlock()
		return nil, h, true
	}
	s, solving := a.solving[id]
	if !solving {
		s = &inflight{done: make(chan struct{})}
		a.solving[id] = s
		go a.solveCluster(id, c, s)
	}
	a.mu.Unlock()

	select {
	case <-s.done:
		return s.eng, s.health, true
	case <-ctx.Done():
		h := ClusterHealth{ClusterID: id, Err: ctx.Err()}
		return nil, h, false
	}
}

// solveCluster runs one detached single-flight solve and installs the
// result.
func (a *Analysis) solveCluster(id int, c *cluster.Cluster, s *inflight) {
	eng, h := RunCluster(context.Background(), a.Prog, a.CallGraph, a.Steens, c, a.Andersen, a.cfg)
	a.mu.Lock()
	if eng != nil {
		a.engines[id] = eng
	} else {
		// Permanently demoted: deselect so later queries answer from
		// the fallback instead of solving again.
		delete(a.selected, id)
	}
	a.queryHealth[id] = h
	delete(a.solving, id)
	a.mu.Unlock()
	s.eng, s.health = eng, h
	close(s.done)
}

// ClusterSolved reports whether a query touching cluster id would be
// answered without triggering a solve: the engine already exists (solved
// or imported), or the cluster was demoted or never selected (fallback
// answers are free). A server uses this to route warm queries around its
// admission queue.
func (a *Analysis) ClusterSolved(id int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.engines[id]; ok {
		return true
	}
	_, selected := a.selected[id]
	return !selected
}

// MayAliasNeedsSolve reports whether MayAliasContext(p, q) could
// trigger a cluster solve. Pairs answered structurally — identical,
// partition-disjoint, or outside every analyzed cluster — never touch
// an engine, so a server must route them around cold admission even
// when p's clusters are still unsolved.
func (a *Analysis) MayAliasNeedsSolve(p, q ir.VarID) bool {
	if p == q || !a.Steens.SamePartition(p, q) {
		return false
	}
	for _, id := range a.byPointer[p] {
		if !a.ClusterSolved(id) {
			return true
		}
	}
	return false
}

// PointsToNeedsSolve reports whether PointsToContext(p) could trigger
// a cluster solve — the admission-routing counterpart of
// MayAliasNeedsSolve.
func (a *Analysis) PointsToNeedsSolve(p ir.VarID) bool {
	for _, id := range a.byPointer[p] {
		if !a.ClusterSolved(id) {
			return true
		}
	}
	return false
}

// QueryHealth returns the health records of the clusters solved at query
// time (EnsureCluster), sorted by cluster ID — the lazy-mode counterpart
// of Analysis.Health.
func (a *Analysis) QueryHealth() []ClusterHealth {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ClusterHealth, 0, len(a.queryHealth))
	for id, h := range a.queryHealth {
		h.ClusterID = id
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ClusterID < out[j].ClusterID })
	return out
}

// SolveStats summarizes engine state for dashboards: how many clusters
// currently hold a solved (or cache-imported) engine, and how many were
// demoted to the fallback — by the eager scheduler or at query time.
func (a *Analysis) SolveStats() (solved, demoted int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	solved = len(a.engines)
	for _, h := range a.queryHealth {
		if h.Demoted {
			demoted++
		}
	}
	for _, h := range a.Health {
		if h.Demoted {
			demoted++
		}
	}
	return solved, demoted
}

// CoveredPointers returns, sorted, every pointer that belongs to at
// least one analyzed cluster — the population for which flow-sensitive
// answers exist (or can be solved on demand). Queries on other variables
// answer from the flow-insensitive fallback.
func (a *Analysis) CoveredPointers() []ir.VarID {
	out := make([]ir.VarID, 0, len(a.byPointer))
	for p := range a.byPointer {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MayAliasContext is the context-first MayAlias: cluster membership is
// resolved once (per Theorems 6 and 7 the clusters containing p
// suffice), cold clusters solve on first touch through EnsureCluster,
// and a deadline expiring mid-solve degrades the answer to the
// flow-insensitive fallback instead of blocking.
//
// precise is false when the fallback had to stand in for a cluster that
// was demoted or still solving when ctx expired: the answer is then
// Andersen-precision (sound for may-alias, possibly wider than the FSCS
// answer). It is true when every cluster of p was consulted at full
// precision.
func (a *Analysis) MayAliasContext(ctx context.Context, p, q ir.VarID, loc ir.Loc) (aliased, precise bool) {
	if p == q {
		return true, true
	}
	if !a.Steens.SamePartition(p, q) {
		return false, true // disjoint cover: cannot alias
	}
	ids := a.byPointer[p]
	if len(ids) == 0 {
		// p was never selected: the flow-insensitive answer is this
		// configuration's full-precision answer for p.
		return a.Andersen.MayAlias(p, q), true
	}
	complete := true // every cluster consulted at full precision
	covered := false // some consulted cluster contains both p and q
	for _, id := range ids {
		eng, _, final := a.EnsureCluster(ctx, id)
		if !final || eng == nil {
			complete = false
			continue
		}
		a.mu.Lock()
		has := eng.Cluster().HasPointer(q)
		may := has && eng.MayAlias(p, q, loc)
		a.mu.Unlock()
		if may {
			return true, true
		}
		covered = covered || has
	}
	if complete {
		if covered {
			return false, true
		}
		// No analyzed cluster contains both: under the disjunctive cover
		// they share no Andersen object unless the fallback says so.
		return a.Andersen.MayAlias(p, q), true
	}
	// Some cluster degraded or ran past the deadline: widen soundly.
	return a.Andersen.MayAlias(p, q), false
}

// MustAliasContext is the context-first MustAlias: p and q must alias at
// loc when some analyzed cluster containing both proves it. Cold clusters
// solve on first touch through EnsureCluster. precise is false when a
// cluster of p was demoted or still solving at the deadline — must-alias
// facts cannot be recovered from the flow-insensitive fallback, so the
// answer is then a sound "false" (never a spurious must).
func (a *Analysis) MustAliasContext(ctx context.Context, p, q ir.VarID, loc ir.Loc) (must, precise bool) {
	if p == q {
		return true, true
	}
	precise = true
	for _, id := range a.byPointer[p] {
		eng, _, final := a.EnsureCluster(ctx, id)
		if !final || eng == nil {
			precise = false
			continue
		}
		a.mu.Lock()
		ok := eng.Cluster().HasPointer(q) && eng.MustAlias(p, q, loc)
		a.mu.Unlock()
		if ok {
			return true, precise
		}
	}
	return false, precise
}

// DerefStateContext is the context-first DerefState: what a dereference
// of p at loc may observe — the referable objects, whether some path
// arrives with p null or uninitialized, and whether the answer is
// precise. Cold clusters solve on first touch; a cluster demoted or
// still solving at the deadline clears precise (the flags stay sound for
// the clusters that did answer). Pointers outside every analyzed cluster
// fall back to the flow-insensitive set with precise=false and unknown
// flags cleared.
func (a *Analysis) DerefStateContext(ctx context.Context, p ir.VarID, loc ir.Loc) (objs []ir.VarID, mayNull, mayUninit, precise bool) {
	set := map[ir.VarID]bool{}
	precise = true
	found := false
	for _, id := range a.byPointer[p] {
		eng, _, final := a.EnsureCluster(ctx, id)
		if !final || eng == nil {
			precise = false
			continue
		}
		found = true
		a.mu.Lock()
		st := eng.ValueState(p, loc)
		a.mu.Unlock()
		precise = precise && !st.Unknown
		mayNull = mayNull || st.Null
		mayUninit = mayUninit || st.Uninit
		for _, o := range st.Objs {
			set[o] = true
		}
	}
	if !found {
		return a.fallbackPointsTo(p), false, false, false
	}
	return sortedVars(set), mayNull, mayUninit, precise
}

// PointsToContext is the context-first PointsTo: the union of p's
// per-cluster value sets at loc, solving cold clusters on first touch.
// precise is false when any contributing engine lost precision, when a
// cluster was demoted or out-deadlined (the flow-insensitive set is then
// merged in, keeping the answer sound), or when p is outside every
// analyzed cluster.
func (a *Analysis) PointsToContext(ctx context.Context, p ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	ids := a.byPointer[p]
	set := map[ir.VarID]bool{}
	precise := true
	found := false
	for _, id := range ids {
		eng, _, final := a.EnsureCluster(ctx, id)
		if !final || eng == nil {
			precise = false
			continue
		}
		found = true
		a.mu.Lock()
		objs, ok := eng.Values(p, loc)
		a.mu.Unlock()
		precise = precise && ok
		for _, o := range objs {
			set[o] = true
		}
	}
	if !found || !precise {
		// Sound widening: fold in the flow-insensitive set.
		a.Andersen.PointsToSet(p).ForEach(func(o int) bool {
			set[ir.VarID(o)] = true
			return true
		})
		precise = false
	}
	return sortedVars(set), precise
}
