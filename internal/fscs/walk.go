package fscs

import (
	"bootstrap/internal/ir"
)

// walkBack is the engine's core: the backward interprocedural traversal of
// Algorithms 4 and 5. Starting just before location at, in at's
// function f, with a tracked token (the paper's tuple (p, f, l, m, q,
// cond) — here p and l are fixed by the caller, the worklist carries
// (m, q, cond)), it propagates the token against each statement's
// effect, branching on unresolved points-to relations with constraints
// per Definition 8, splicing callee summaries at call nodes, and
// returning the set of sources: tokens at f's entry (TVar) or terminated
// sequences (TAddr / TNull / TUnknown).
//
// The walk visits only f's skeleton (skeleton.go): the nodes where
// transfer can act on a token of this cluster, linked by contracted
// predecessor edges. A tuple is one visit of a skeleton node; the skips
// between kept nodes cost nothing.
//
// Conditions travel as interned CondIDs, worklist deduplication is an
// epoch-stamped chain per skeleton node in a flat arena, and transfer
// appends its outcomes to a reused buffer; all three live in a scratch
// reused across walks. Once the scratch has grown to f's skeleton, the
// result set is the walk's only allocation.
//
// lookup supplies callee exit summaries; during the recursion fixpoint it
// returns the current (possibly still growing) tuple sets.
func (e *Engine) walkBack(start Token, at ir.Loc, lookup func(ir.FuncID, ir.VarID) tupSet) tupSet {
	out := tupSet{}
	if !e.checkpoint() {
		// Cancelled: return no sources. Callers observe e.over and widen
		// to the fallback, so an empty set here stays sound.
		return out
	}
	if start.Kind != TVar {
		out.add(tup{tok: start, cond: TrueCondID})
		return out
	}
	n := e.prog.Node(at)
	if len(n.Preds) == 0 {
		// Querying at the function entry: the token's value is whatever it
		// holds on entry.
		out.add(tup{tok: start, cond: TrueCondID})
		return out
	}
	sk := e.skeletonOf(n.Fn)
	// A walk never leaves f (CFG edges are intraprocedural; callee
	// summaries recurse through their own scratch), so the dedup chains
	// are indexed by a node's number in f's skeleton.
	s := e.getScratch(len(sk.locs))
	// The arena, worklist and outcome buffer grow in locals, stored back
	// into the scratch once when the walk ends: storing a slice header
	// into the heap scratch on every push would be a pointer write with a
	// GC write barrier.
	ent, work, outs := s.ent, s.work, s.outs
	defer func() {
		s.ent, s.work, s.outs = ent, work, outs
		e.putScratch(s)
	}()

	record := func(t Token, c CondID) {
		out.add(tup{tok: t, cond: c})
	}
	push := func(d int32, t Token, c CondID) {
		if t.Kind != TVar && !e.hasAssumes {
			// No path constraints to collect: terminated sequences record
			// immediately.
			record(t, c)
			return
		}
		h := int32(-1)
		if s.stamp[d] == s.epoch {
			h = s.head[d]
		} else {
			s.stamp[d] = s.epoch
		}
		for j := h; j >= 0; j = ent[j].next {
			if ent[j].tok == t && ent[j].cond == c {
				return
			}
		}
		s.head[d] = int32(len(ent))
		ent = append(ent, wbEntry{tok: t, cond: c, next: h})
		work = append(work, wbItem{node: d, tok: t, cond: c})
	}
	// Start locations with no kept node behind them push nothing: the
	// walk then has no sources.
	for _, d := range e.startsAt(sk, n) {
		push(d, start, TrueCondID)
	}

	for len(work) > 0 {
		if !e.charge() {
			return out
		}
		it := work[len(work)-1]
		work = work[:len(work)-1]

		outs = e.transfer(outs[:0], sk.locs[it.node], it.tok, it.cond, lookup)
		preds := sk.preds[sk.off[it.node]:sk.off[it.node+1]]
		for _, oc := range outs {
			if oc.tok.Kind != TVar && !e.hasAssumes {
				record(oc.tok, oc.cond)
				continue
			}
			if it.node == sk.entry {
				record(oc.tok, oc.cond)
				continue
			}
			for _, pr := range preds {
				push(pr, oc.tok, oc.cond)
			}
		}
	}
	return out
}

// wbItem is one walkBack worklist entry: a tracked token with its path
// condition at a skeleton node.
type wbItem struct {
	node int32
	tok  Token
	cond CondID
}

// wbEntry is a (token, condition) pair in a node's dedup chain; next is
// the arena index of the chain's following entry, or -1 at its end.
type wbEntry struct {
	tok  Token
	cond CondID
	next int32
}

// walkScratch is the reusable traversal state for one live walkBack. The
// dedup set is one chain of (token, condition) entries per node of the
// walked skeleton, indexed by its dense number: head[d] is the arena
// index of node d's newest entry, valid only while stamp[d] equals epoch.
// A stale stamp means the chain logically starts empty this walk, so no
// clearing pass is needed between walks, and membership is a linear scan
// of the small per-node fan-in instead of hashing a 16-byte struct key.
// Every chain lives in the one flat ent arena, truncated at getScratch,
// and links by int32 index: the scratch holds no per-node slices, and
// walkBack grows ent, work and outs in locals, so its loop stores no
// pointers and pays no GC write barrier. outs is transfer's outcome
// buffer; a nested walk (through a summary lookup or PointsToAt) checks
// out its own scratch, so the buffer is never shared. stamp and head only
// ever grow, to the largest skeleton this scratch has walked — Prog_P's
// size, not the function's; ent, work and outs keep their capacity
// across walks.
type walkScratch struct {
	epoch uint32
	stamp []uint32
	head  []int32
	ent   []wbEntry
	work  []wbItem
	outs  []outcome
}

// getScratch pops a scratch off the engine's free list and grows it to n
// nodes, the walked skeleton's size. walkBack re-enters itself through
// summary lookups and FSCI value resolution, so each live walk owns a
// scratch; the list depth matches the maximum nesting, which stays small.
func (e *Engine) getScratch(n int) *walkScratch {
	var s *walkScratch
	if k := len(e.scratch); k > 0 {
		s = e.scratch[k-1]
		e.scratch = e.scratch[:k-1]
	} else {
		s = &walkScratch{}
	}
	if n > len(s.stamp) {
		// Exactly n, not append's amortized headroom: the engine keeps its
		// scratches for life. Every old stamp is stale, and zero is stale
		// for every epoch, so nothing is carried over: a head is only read
		// under a current stamp, after this walk has written it.
		s.stamp, s.head = make([]uint32, n), make([]int32, n)
	}
	s.ent = s.ent[:0]
	s.epoch++
	if s.epoch == 0 {
		// Stamp wrap-around: every stale stamp would look current, so force
		// a full reset once per 2^32 walks.
		clear(s.stamp)
		s.epoch = 1
	}
	return s
}

func (e *Engine) putScratch(s *walkScratch) {
	s.work = s.work[:0]
	e.scratch = append(e.scratch, s)
}

// outcome is one (token, condition) result of pushing a token backwards
// through a statement.
type outcome struct {
	tok  Token
	cond CondID
}

// transfer implements Algorithm 4: the effect of the statement at loc on a
// tracked token, backwards. It appends the possible outcomes to dst and
// returns the extended slice (several outcomes when a points-to relation
// cannot be resolved and both cases are tracked under constraints; none
// while a provisional callee summary is still empty). It builds no slice
// of its own, so with a buffer of enough capacity it allocates nothing.
func (e *Engine) transfer(dst []outcome, loc ir.Loc, tok Token, cond CondID, lookup func(ir.FuncID, ir.VarID) tupSet) []outcome {
	n := e.prog.Node(loc)
	st := n.Stmt
	q := tok.V
	pass := outcome{tok: tok, cond: cond}

	// A terminated token (null / &obj / unknown) is walked further only
	// to pick up the branch constraints guarding its path: assume nodes
	// strengthen its condition; everything else is transparent.
	if tok.Kind != TVar {
		if st.Op == ir.OpAssumeEq || st.Op == ir.OpAssumeNeq {
			if !e.cl.HasVar(st.Dst) || !e.cl.HasVar(st.Src) {
				return append(dst, pass)
			}
			op := OpSameTarget
			if st.Op == ir.OpAssumeNeq {
				op = OpDiffTarget
			}
			return append(dst, outcome{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})
		}
		return append(dst, pass)
	}

	// Statements outside St_P cannot modify V_P variables (Algorithm 1
	// includes every statement whose destination is relevant), so they act
	// as skips — this is the Prog_P slicing of Section 2.
	switch st.Op {
	case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore, ir.OpNullify:
		if !e.cl.HasStmt(loc) {
			return append(dst, pass)
		}
	}

	switch st.Op {
	case ir.OpSkip, ir.OpRet, ir.OpTouch:
		return append(dst, pass)

	case ir.OpAssumeEq, ir.OpAssumeNeq:
		// Path sensitivity (Section 3): the walk crossed a branch arm
		// guarded by a pointer (in)equality; record it as a same-target /
		// different-target constraint (Definition 8) so refutable tuples
		// are weeded out at satisfiability time. Only constraints over
		// tracked (V_P) pointers are recorded — the FSCI points-to sets
		// used to refute them are only computed for the cluster's slice.
		if !e.cl.HasVar(st.Dst) || !e.cl.HasVar(st.Src) {
			return append(dst, pass)
		}
		op := OpSameTarget
		if st.Op == ir.OpAssumeNeq {
			op = OpDiffTarget
		}
		return append(dst, outcome{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})

	case ir.OpCopy:
		if st.Dst == q {
			return append(dst, outcome{tok: VarTok(st.Src), cond: cond})
		}
		return append(dst, pass)

	case ir.OpAddr:
		if st.Dst == q {
			return append(dst, outcome{tok: AddrTok(st.Src), cond: cond})
		}
		return append(dst, pass)

	case ir.OpNullify:
		if st.Dst == q {
			return append(dst, outcome{tok: NullTok(), cond: cond})
		}
		return append(dst, pass)

	case ir.OpLoad: // dst = *s
		if st.Dst != q {
			return append(dst, pass)
		}
		s := st.Src
		base := len(dst)
		if e.sa.SamePartition(s, q) {
			// Cyclic case: s and the tracked pointer share a partition, so
			// the FSCI points-to set of s is not available yet; enumerate
			// the possible objects under constraints (Definition 8).
			for _, o := range e.cl.Vars {
				if e.sa.LocClass(o) == e.sa.ContentClass(s) {
					dst = append(dst, outcome{
						tok:  VarTok(o),
						cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
					})
				}
			}
			if len(dst) == base {
				return append(dst, outcome{tok: UnknownTok(), cond: cond})
			}
			return dst
		}
		// Top-down resolution: s is strictly higher in the hierarchy, so
		// its FSCI points-to set is computable first (Algorithm 2).
		pt, known := e.PointsToAt(s, loc)
		if !known {
			return append(dst, outcome{tok: UnknownTok(), cond: cond})
		}
		for _, o := range pt {
			if !e.cl.HasVar(o) {
				continue
			}
			dst = append(dst, outcome{
				tok:  VarTok(o),
				cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
			})
		}
		if len(dst) == base {
			// s points nowhere the analysis tracks: the load yields an
			// unconstrained value.
			return append(dst, outcome{tok: UnknownTok(), cond: cond})
		}
		return dst

	case ir.OpStore: // *d = r
		d, r := st.Dst, st.Src
		// The store can touch q only if q's location class is what d
		// points at under Steensgaard.
		if e.sa.LocClass(q) != e.sa.ContentClass(d) {
			return append(dst, pass)
		}
		both := func() []outcome {
			return append(dst,
				outcome{tok: VarTok(r), cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: d, Y: q})},
				outcome{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: OpNotPointsTo, X: d, Y: q})},
			)
		}
		if e.sa.SamePartition(d, q) {
			return both() // cyclic case: track constraints
		}
		pt, known := e.PointsToAt(d, loc)
		if !known {
			return both()
		}
		for _, o := range pt {
			if o == q {
				return both()
			}
		}
		return append(dst, pass) // d provably never points at q here

	case ir.OpCall:
		g := st.Callee
		if g == ir.NoFunc {
			// Undevirtualized indirect call: conservatively unknown for
			// any pointer it might modify.
			if e.cl.HasVar(q) {
				return append(dst, outcome{tok: UnknownTok(), cond: cond})
			}
			return append(dst, pass)
		}
		if !e.Modifies(g, q) {
			// Executing g has no effect on q: jump over the call
			// (Algorithm 5, line 17).
			return append(dst, pass)
		}
		// Splice g's exit summary for q (Algorithm 5, lines 10-13): each
		// source continues in the caller just before the call node, where
		// the parameter-binding copies rebind formals to actuals.
		for t := range lookup(g, q) {
			dst = append(dst, outcome{tok: t.tok, cond: e.tab.and(cond, t.cond)})
		}
		// An empty (provisional) summary yields no outcomes this round;
		// the fixpoint revisits once the callee summary grows.
		return dst
	}
	return append(dst, pass)
}
