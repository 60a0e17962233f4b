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
// callees, so the largest function is well short of the whole program.
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

// maxFuncNodes is the node count of p's largest function: the most
// dedup slots any one walk may need.
func maxFuncNodes(p *ir.Program) int {
	m := 0
	for _, f := range p.Funcs {
		m = max(m, len(f.Nodes))
	}
	return m
}

// checkScratchFunctionSized asserts that every pooled walk scratch of e is
// no larger than p's largest function, which is strictly smaller than
// the program.
func checkScratchFunctionSized(t *testing.T, e *Engine, p *ir.Program) {
	t.Helper()
	limit := maxFuncNodes(p)
	if limit >= len(p.Nodes) {
		t.Fatalf("test program: largest function has %d nodes, program %d; need a strictly smaller function", limit, len(p.Nodes))
	}
	if len(e.scratch) == 0 {
		t.Fatal("no pooled walk scratch after queries")
	}
	for i, s := range e.scratch {
		if len(s.stamp) > limit || len(s.bkt) > limit {
			t.Errorf("scratch %d: %d stamps, %d buckets; want <= %d (largest function), program has %d nodes",
				i, len(s.stamp), len(s.bkt), limit, len(p.Nodes))
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

// TestWalkScratchFunctionSized: walk scratches are sized by the walked
// function, never by the program — also after an edit appends a node to
// the first function, whose new location lands at the end of the
// program's location space.
func TestWalkScratchFunctionSized(t *testing.T) {
	h := newHarness(t, scratchSrc)
	ptrs := []ir.VarID{h.v(t, "p"), h.v(t, "q"), h.v(t, "r")}
	e := h.engineFor(t)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkScratchFunctionSized(t, e, h.prog)

	// Insert a non-pointer statement after the entry of the first
	// function: the engine's memoized state stays exact, so Rebind may
	// carry it (and its scratch free list) over to the edited program.
	q := h.prog.Clone()
	first := q.Funcs[0]
	if first.Name != "main" || len(first.Nodes) != maxFuncNodes(q) {
		t.Fatalf("test program: first function is %s, want main, the largest", first.Name)
	}
	touch := ir.Stmt{Op: ir.OpTouch, Dst: q.VarByName["n"], Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}
	if _, err := ir.ApplyEdits(q, []ir.Edit{{Kind: ir.EditInsertAfter, Loc: first.Entry, Stmt: touch}}); err != nil {
		t.Fatalf("ApplyEdits: %v", err)
	}
	added := ir.Loc(len(q.Nodes) - 1)
	if n := q.Node(added); n.Fn != first.ID || int(n.Index) != len(first.Nodes)-1 {
		t.Fatalf("inserted L%d: fn %d index %d, want fn %d index %d", added, n.Fn, n.Index, first.ID, len(first.Nodes)-1)
	}
	sa := steens.Analyze(q)
	aa := andersen.Analyze(q)
	cg := callgraph.Build(q)
	pooled := append([]*walkScratch(nil), e.scratch...)
	e.Rebind(q, cg, sa, cluster.BuildWhole(q, sa), aa)
	fresh := NewEngine(q, cg, sa, cluster.BuildWhole(q, sa), WithFallback(aa))
	checkSameAnswers(t, q, e, fresh, ptrs)
	checkScratchFunctionSized(t, e, q)
	// The edited main outgrew every scratch pooled before the edit. Rebind
	// keeps the free list, so walks through main grow one of those in place.
	grown := false
	for _, s := range pooled {
		grown = grown || len(s.stamp) == len(first.Nodes)
	}
	if !grown {
		t.Errorf("no scratch pooled before Rebind grew to the edited main's %d nodes", len(first.Nodes))
	}
}

// TestWalkScratchEpochWrap drives the stamp wrap-around reset: a pooled
// scratch grown to main but last used for the smaller leaf, with its
// epoch about to wrap, walks main again. Stale stamps equal to the
// restarted epoch would look current and drop work anywhere in the grown
// slice, so the answers must still equal a fresh engine's.
func TestWalkScratchEpochWrap(t *testing.T) {
	h := newHarness(t, scratchSrc)
	q := h.v(t, "q")
	ptrs := []ir.VarID{h.v(t, "p"), q, h.v(t, "r")}
	leaf, main := h.prog.Func(h.prog.FuncByName["leaf"]), h.prog.Func(h.prog.FuncByName["main"])
	if len(leaf.Nodes) >= len(main.Nodes) {
		t.Fatal("test program: leaf must be smaller than main")
	}

	e := h.engineFor(t)
	fresh := h.engineFor(t)
	// Neither walk reaches a call, so both use one scratch: grown to main,
	// then reused for leaf.
	e.SummaryAt(h.prog.Node(main.Entry).Succs[0], q)
	for _, v := range ptrs {
		e.SummaryAt(leaf.Exit, v)
	}
	if len(e.scratch) != 1 {
		t.Fatalf("%d pooled scratches, want 1", len(e.scratch))
	}
	s := e.scratch[0]
	if len(s.stamp) != len(main.Nodes) {
		t.Fatalf("scratch has %d stamps, want main's %d nodes", len(s.stamp), len(main.Nodes))
	}
	// Make every slot look live at epoch 1, the epoch the reset restarts
	// at, with each tracked pointer already in its bucket: unless the
	// reset clears the whole slice, main's walk drops pushes as duplicates.
	for i := range s.stamp {
		s.stamp[i] = 1
		s.bkt[i] = s.bkt[i][:0]
		for _, v := range ptrs {
			s.bkt[i] = append(s.bkt[i], wbEntry{tok: VarTok(v), cond: TrueCondID})
		}
	}
	s.epoch = math.MaxUint32

	got := e.SummaryAt(main.Exit, q)
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
