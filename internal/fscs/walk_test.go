package fscs

import (
	"math"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

// scratchSrc has one large function first in the program and two small
// callees. main holds skip nodes (entry branches, joins) that its
// skeleton drops, so main's skeleton is well short of main.
const scratchSrc = `
	int a, b, c, n;
	int *p, *q, *r;
	int **pp;
	void main() {
		p = &a;
		r = &b;
		pp = &p;
		if (*) { *pp = r; } else { q = &c; }
		mid();
		if (*) { p = q; } else { r = p; }
		leaf();
		pp = &r;
		*pp = q;
	}
	void mid() { leaf(); if (p == r) { r = &c; } }
	void leaf() { q = p; }
`

// maxFuncNodes is the node count of p's largest function.
func maxFuncNodes(p *ir.Program) int {
	m := 0
	for _, f := range p.Funcs {
		m = max(m, len(f.Nodes))
	}
	return m
}

// maxSkeleton is the kept-node count of e's largest skeleton: the most
// dedup slots any one walk of e may need.
func maxSkeleton(e *Engine) int {
	m := 0
	for _, sk := range e.skels {
		m = max(m, len(sk.locs))
	}
	return m
}

// checkScratchSkeletonSized asserts that every pooled walk scratch of e
// is no larger than e's largest skeleton, which is strictly smaller than
// p's largest function.
func checkScratchSkeletonSized(t *testing.T, e *Engine, p *ir.Program) {
	t.Helper()
	limit := maxSkeleton(e)
	if limit >= maxFuncNodes(p) {
		t.Fatalf("test program: largest skeleton has %d nodes, largest function %d; need a strictly smaller skeleton", limit, maxFuncNodes(p))
	}
	if len(e.scratch) == 0 {
		t.Fatal("no pooled walk scratch after queries")
	}
	for i, s := range e.scratch {
		if len(s.stamp) > limit || len(s.head) > limit {
			t.Errorf("scratch %d: %d stamps, %d chain heads; want <= %d (largest skeleton), largest function has %d nodes",
				i, len(s.stamp), len(s.head), limit, maxFuncNodes(p))
		}
	}
}

// checkSameAnswers compares got against want on every summary and on the
// points-to set of every listed pointer at every location of the program.
func checkSameAnswers(t *testing.T, p *ir.Program, got, want *Engine, ptrs []ir.VarID) {
	t.Helper()
	for _, f := range p.Funcs {
		for _, v := range ptrs {
			a, b := got.Summary(f.ID, v), want.Summary(f.ID, v)
			if len(a) != len(b) {
				t.Fatalf("Summary(%s, %s): %d tuples, want %d", f.Name, p.VarName(v), len(a), len(b))
			}
			for i := range a {
				if a[i].key() != b[i].key() {
					t.Errorf("Summary(%s, %s)[%d] = %v, want %v", f.Name, p.VarName(v), i, a[i], b[i])
				}
			}
		}
		for _, loc := range f.Nodes {
			for _, v := range ptrs {
				a, oka := got.PointsToAt(v, loc)
				b, okb := want.PointsToAt(v, loc)
				if oka != okb || len(a) != len(b) {
					t.Fatalf("PointsToAt(%s, L%d) = %v/%v, want %v/%v", p.VarName(v), loc, a, oka, b, okb)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Errorf("PointsToAt(%s, L%d) = %v, want %v", p.VarName(v), loc, a, b)
						break
					}
				}
			}
		}
	}
}

// TestWalkScratchSkeletonSized: walk scratches are sized by the walked
// skeleton, never by its function — also after an edit inserts a kept
// node into main and Rebind drops the skeletons, so main's rebuilt
// skeleton outgrows every scratch pooled before the edit.
func TestWalkScratchSkeletonSized(t *testing.T) {
	h := newHarness(t, scratchSrc)
	ptrs := []ir.VarID{h.v(t, "p"), h.v(t, "q"), h.v(t, "r")}
	e := h.engineFor(t)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkScratchSkeletonSized(t, e, h.prog)

	// Insert a second call to leaf (q = p) right after main's own: p does
	// not change between the two, so every answer stays the same and the
	// engine's memoized state stays exact, and Rebind may carry it (and
	// its scratch free list) over to the edited program. The call is a
	// kept node: leaf modifies q.
	q := h.prog.Clone()
	first := q.Funcs[0]
	if first.Name != "main" || len(first.Nodes) != maxFuncNodes(q) {
		t.Fatalf("test program: first function is %s, want main, the largest", first.Name)
	}
	leaf := q.FuncByName["leaf"]
	var anchor ir.Loc = ir.NoLoc
	for _, loc := range first.Nodes {
		if st := q.Node(loc).Stmt; st.Op == ir.OpCall && st.Callee == leaf {
			anchor = loc
		}
	}
	if anchor == ir.NoLoc {
		t.Fatal("test program: main does not call leaf")
	}
	call := ir.Stmt{Op: ir.OpCall, Dst: ir.NoVar, Src: ir.NoVar, Callee: leaf, FPtr: ir.NoVar}
	if _, err := ir.ApplyEdits(q, []ir.Edit{{Kind: ir.EditInsertAfter, Loc: anchor, Stmt: call}}); err != nil {
		t.Fatalf("ApplyEdits: %v", err)
	}
	added := ir.Loc(len(q.Nodes) - 1)
	if n := q.Node(added); n.Fn != first.ID || int(n.Index) != len(first.Nodes)-1 {
		t.Fatalf("inserted L%d: fn %d index %d, want fn %d index %d", added, n.Fn, n.Index, first.ID, len(first.Nodes)-1)
	}
	before := len(e.skels[first.ID].locs)
	if before != maxSkeleton(e) {
		t.Fatalf("test program: main's skeleton has %d nodes, want the largest, %d", before, maxSkeleton(e))
	}
	sa := steens.Analyze(q)
	aa := andersen.Analyze(q)
	cg := callgraph.Build(q)
	pooled := append([]*walkScratch(nil), e.scratch...)
	e.Rebind(q, cg, sa, cluster.BuildWhole(q, sa), aa)
	fresh := NewEngine(q, cg, sa, cluster.BuildWhole(q, sa), WithFallback(aa))
	checkSameAnswers(t, q, e, fresh, ptrs)
	checkScratchSkeletonSized(t, e, q)
	sk := e.skels[first.ID]
	if len(sk.locs) != before+1 || sk.dense(q, added) < 0 {
		t.Fatalf("main's skeleton after Rebind has %d nodes (inserted call kept: %v), want %d with the call",
			len(sk.locs), sk.dense(q, added) >= 0, before+1)
	}
	// The rebuilt main outgrew every scratch pooled before the edit.
	// Rebind keeps the free list, so walks through main grow one of those
	// in place.
	grown := false
	for _, s := range pooled {
		grown = grown || len(s.stamp) == len(sk.locs)
	}
	if !grown {
		t.Errorf("no scratch pooled before Rebind grew to the edited main's %d-node skeleton", len(sk.locs))
	}
}

// TestWalkScratchEpochWrap drives the stamp wrap-around reset: a pooled
// scratch grown to main's skeleton but last used for leaf's smaller one,
// with its epoch about to wrap, walks main again. Stale stamps equal to the
// restarted epoch would look current, so their chain heads would be read
// as live: the walk would drop work or index past the emptied arena
// anywhere in the grown slice. The answers must still equal a fresh
// engine's.
func TestWalkScratchEpochWrap(t *testing.T) {
	h := newHarness(t, scratchSrc)
	q := h.v(t, "q")
	ptrs := []ir.VarID{h.v(t, "p"), q, h.v(t, "r")}
	leaf, main := h.prog.Func(h.prog.FuncByName["leaf"]), h.prog.Func(h.prog.FuncByName["main"])

	e := h.engineFor(t)
	fresh := h.engineFor(t)
	// Neither walk reaches a call, so both use one scratch: grown to
	// main's skeleton, then reused for leaf's.
	e.SummaryAt(h.prog.Node(main.Entry).Succs[0], q)
	for _, v := range ptrs {
		e.SummaryAt(leaf.Exit, v)
	}
	if len(e.scratch) != 1 {
		t.Fatalf("%d pooled scratches, want 1", len(e.scratch))
	}
	mainSk, leafSk := len(e.skels[main.ID].locs), len(e.skels[leaf.ID].locs)
	if leafSk >= mainSk {
		t.Fatalf("test program: leaf's skeleton (%d nodes) must be smaller than main's (%d)", leafSk, mainSk)
	}
	s := e.scratch[0]
	if len(s.stamp) != mainSk {
		t.Fatalf("scratch has %d stamps, want main's %d skeleton nodes", len(s.stamp), mainSk)
	}
	// Make every slot look live at epoch 1, the epoch the reset restarts
	// at, with each tracked pointer already in its chain: unless the reset
	// clears the whole slice, main's walk follows stale heads and drops
	// pushes as duplicates or runs off the arena.
	s.ent = s.ent[:0]
	for i := range s.stamp {
		s.stamp[i] = 1
		s.head[i] = -1
		for _, v := range ptrs {
			s.ent = append(s.ent, wbEntry{tok: VarTok(v), cond: TrueCondID, next: s.head[i]})
			s.head[i] = int32(len(s.ent) - 1)
		}
	}
	s.epoch = math.MaxUint32

	got := func() []SumTuple {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("SummaryAt(main exit, q) after wrap panicked, a stale chain read as live: %v", r)
			}
		}()
		return e.SummaryAt(main.Exit, q)
	}()
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	want := fresh.SummaryAt(main.Exit, q)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("SummaryAt(main exit, q) after wrap = %v, want %v (non-empty)", got, want)
	}
	for i := range want {
		if got[i].key() != want[i].key() {
			t.Errorf("SummaryAt(main exit, q)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	checkSameAnswers(t, h.prog, e, fresh, ptrs)
}

// allocSrc covers every pass-through and single-outcome op transfer
// meets: the store through pp reaches only r's class, never q's, and
// leaf modifies r but not q.
const allocSrc = `
	int a, b;
	int *p, *q, *r;
	int **pp;
	void main() {
		p = &a;
		q = p;
		r = null;
		pp = &r;
		*pp = p;
		leaf();
	}
	void leaf() { r = &b; }
`

// allocSink keeps the reference tuple sets of TestWalkAllocFree on the
// heap, as walkBack's result is.
var allocSink tupSet

// TestWalkAllocFree: on a warmed engine and scratch, transfer appends
// into a buffer with room without allocating, and a repeated walkBack
// allocates no more than building its result set does.
func TestWalkAllocFree(t *testing.T) {
	h := newHarness(t, allocSrc)
	p, q, r := h.v(t, "p"), h.v(t, "q"), h.v(t, "r")
	e := h.engineFor(t)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mainFn := h.prog.Func(h.prog.FuncByName["main"])
	// at returns main's only node with the given op and destination.
	at := func(op ir.Op, dst ir.VarID) ir.Loc {
		t.Helper()
		found := ir.NoLoc
		for _, loc := range mainFn.Nodes {
			if st := h.prog.Node(loc).Stmt; st.Op == op && st.Dst == dst {
				if found != ir.NoLoc {
					t.Fatalf("main has two %v nodes writing %s", op, h.prog.VarName(dst))
				}
				found = loc
			}
		}
		if found == ir.NoLoc {
			t.Fatalf("main has no %v node writing %s", op, h.prog.VarName(dst))
		}
		return found
	}
	pass := VarTok(q)
	cases := []struct {
		name string
		loc  ir.Loc
		tok  Token
		want Token
	}{
		{"skip", mainFn.Entry, pass, pass},
		{"copy", at(ir.OpCopy, q), VarTok(q), VarTok(p)},
		{"addr", at(ir.OpAddr, p), VarTok(p), AddrTok(h.v(t, "a"))},
		{"nullify", at(ir.OpNullify, r), VarTok(r), NullTok()},
		{"store not touching q", at(ir.OpStore, h.v(t, "pp")), pass, pass},
		{"call not modifying q", at(ir.OpCall, ir.NoVar), pass, pass},
	}
	buf := make([]outcome, 1, 8)
	for _, c := range cases {
		got := e.transfer(buf[:1], c.loc, c.tok, TrueCondID, e.summaryLookup)
		if len(got) != 2 || got[1] != (outcome{tok: c.want, cond: TrueCondID}) {
			t.Errorf("%s: transfer appended %v, want one outcome %v", c.name, got[1:], c.want)
			continue
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf = e.transfer(buf[:1], c.loc, c.tok, TrueCondID, e.summaryLookup)
		})
		if allocs != 0 {
			t.Errorf("%s: transfer allocated %.1f times per call, want 0", c.name, allocs)
		}
	}

	for _, v := range []ir.VarID{p, q, r} {
		walk := func() tupSet {
			return e.walkBack(VarTok(v), mainFn.Exit, e.summaryLookup)
		}
		res := walk()
		if len(res) == 0 {
			t.Fatalf("walkBack(main exit, %s) found no sources", h.prog.VarName(v))
		}
		setAllocs := testing.AllocsPerRun(100, func() {
			s := tupSet{}
			for tp := range res {
				s.add(tp)
			}
			allocSink = s
		})
		walkAllocs := testing.AllocsPerRun(100, func() { allocSink = walk() })
		if walkAllocs > setAllocs {
			t.Errorf("walkBack(main exit, %s) allocated %.1f times per walk, want <= %.1f (its %d-tuple result set)",
				h.prog.VarName(v), walkAllocs, setAllocs, len(res))
		}
	}
}
