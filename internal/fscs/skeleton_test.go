package fscs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// skipProg is a hand-built main whose only pointer statements are
// p = &a and q = p, with skips everywhere else:
//
//	entry → p = &a → 1,000 skips → loop{l1 ⇄ l2} → q = p → exit
//	dead{d1 ⇄ d2} ─────────────────────────────────↗
//
// The dead region is unreachable from the entry and has no kept node
// behind it.
type skipProg struct {
	prog           *ir.Program
	main           *ir.Func
	a, p, q        ir.VarID
	addr, copyLoc  ir.Loc
	chain          []ir.Loc
	l1, l2, d1, d2 ir.Loc
}

func newSkipProg(t *testing.T) *skipProg {
	t.Helper()
	p := ir.NewProgram()
	s := &skipProg{prog: p}
	s.a = p.AddVar("a", ir.KindGlobal, ir.NoFunc)
	s.p = p.AddVar("p", ir.KindGlobal, ir.NoFunc)
	s.q = p.AddVar("q", ir.KindGlobal, ir.NoFunc)
	s.main = p.AddFunc("main")
	p.Entry = s.main.ID
	node := func(op ir.Op, dst, src ir.VarID) ir.Loc {
		return p.AddNode(s.main.ID, ir.Stmt{Op: op, Dst: dst, Src: src, Callee: ir.NoFunc, FPtr: ir.NoVar})
	}
	skip := func() ir.Loc { return node(ir.OpSkip, ir.NoVar, ir.NoVar) }

	s.main.Entry = skip()
	s.addr = node(ir.OpAddr, s.p, s.a)
	p.AddEdge(s.main.Entry, s.addr)
	prev := s.addr
	for range 1000 {
		n := skip()
		p.AddEdge(prev, n)
		s.chain = append(s.chain, n)
		prev = n
	}
	s.l1, s.l2 = skip(), skip()
	p.AddEdge(prev, s.l1)
	p.AddEdge(s.l1, s.l2)
	p.AddEdge(s.l2, s.l1)
	s.copyLoc = node(ir.OpCopy, s.q, s.p)
	p.AddEdge(s.l2, s.copyLoc)
	s.d1, s.d2 = skip(), skip()
	p.AddEdge(s.d1, s.d2)
	p.AddEdge(s.d2, s.d1)
	p.AddEdge(s.d2, s.copyLoc)
	s.main.Exit = node(ir.OpRet, ir.NoVar, ir.NoVar)
	p.AddEdge(s.copyLoc, s.main.Exit)
	if err := p.Validate(); err != nil {
		t.Fatalf("hand-built program: %v", err)
	}
	return s
}

func (s *skipProg) engine() *Engine {
	sa := steens.Analyze(s.prog)
	return NewEngine(s.prog, callgraph.Build(s.prog), sa, cluster.BuildWhole(s.prog, sa), WithFallback(andersen.Analyze(s.prog)))
}

// TestSkeletonContractsSkips: the walk crosses a 1,000-node skip chain,
// a loop of skips and a dead-end region without visiting any of them,
// answers exactly as the node-by-node CFG semantics does, and charges at
// most one tuple per kept node and token.
func TestSkeletonContractsSkips(t *testing.T) {
	s := newSkipProg(t)
	e := s.engine()
	main := s.main

	cases := []struct {
		name string
		v    ir.VarID
		at   ir.Loc
		want ValueState
	}{
		// At the entry the value is whatever p holds on entry to main.
		{"p at entry", s.p, main.Entry, ValueState{Uninit: true}},
		{"p inside the skip chain", s.p, s.chain[500], ValueState{Objs: []ir.VarID{s.a}}},
		{"p inside the skip loop", s.p, s.l1, ValueState{Objs: []ir.VarID{s.a}}},
		{"q inside the skip loop", s.q, s.l2, ValueState{Uninit: true}},
		// The dead region's predecessors reach no kept node: no path from
		// the entry leads here, so there are no sources at all — not the
		// entry value.
		{"p inside the dead region", s.p, s.d1, ValueState{}},
		{"p after the join with the dead region", s.p, s.copyLoc, ValueState{Objs: []ir.VarID{s.a}}},
		{"q at exit", s.q, main.Exit, ValueState{Objs: []ir.VarID{s.a}}},
	}
	for _, c := range cases {
		before := e.TuplesProcessed
		got := e.ValueState(c.v, c.at)
		if !slices.Equal(got.Objs, c.want.Objs) || got.Null != c.want.Null || got.Uninit != c.want.Uninit || got.Unknown != c.want.Unknown {
			t.Errorf("%s: ValueState = %+v, want %+v", c.name, got, c.want)
		}
		sk := e.skels[main.ID]
		if sk == nil {
			if len(s.prog.Node(c.at).Preds) == 0 {
				continue // the entry query needs no walk
			}
			t.Fatalf("%s: no skeleton of main after a walk", c.name)
		}
		if bound := int64(len(sk.locs) * len(s.prog.Vars)); e.TuplesProcessed-before > bound {
			t.Errorf("%s: charged %d tuples, want <= %d (%d kept nodes x %d tokens)",
				c.name, e.TuplesProcessed-before, bound, len(sk.locs), len(s.prog.Vars))
		}
	}

	sk := e.skels[main.ID]
	want := []ir.Loc{main.Entry, s.addr, s.copyLoc, main.Exit}
	if !slices.Equal(sk.locs, want) {
		t.Errorf("main's skeleton = %v, want entry, p = &a, q = p, exit = %v", sk.locs, want)
	}
	if got := sk.preds[sk.off[2]:sk.off[3]]; !slices.Equal(got, []int32{1}) {
		t.Errorf("contracted preds of q = p = %v, want [1] (p = &a)", got)
	}
	for i, sc := range e.scratch {
		if len(sc.stamp) > len(sk.locs) {
			t.Errorf("scratch %d has %d stamps, want <= %d kept nodes (main has %d nodes)", i, len(sc.stamp), len(sk.locs), len(main.Nodes))
		}
	}
}

// sccModStar is the whole-call-graph closure computeModStar replaced:
// every SCC, callees first, iterated to a fixpoint within the SCC.
func sccModStar(e *Engine) map[ir.FuncID]map[ir.VarID]bool {
	out := map[ir.FuncID]map[ir.VarID]bool{}
	add := func(f ir.FuncID, v ir.VarID) bool {
		if out[f] == nil {
			out[f] = map[ir.VarID]bool{}
		}
		if out[f][v] {
			return false
		}
		out[f][v] = true
		return true
	}
	for _, loc := range e.cl.Stmts {
		n := e.prog.Node(loc)
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpNullify:
			if e.cl.HasVar(n.Stmt.Dst) {
				add(n.Fn, n.Stmt.Dst)
			}
		case ir.OpStore:
			for _, o := range e.sa.PointsToVars(n.Stmt.Dst) {
				if e.cl.HasVar(o) {
					add(n.Fn, o)
				}
			}
		}
	}
	for _, scc := range e.cg.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, f := range scc {
				for _, g := range e.cg.Callees(f) {
					for v := range out[g] {
						changed = add(f, v) || changed
					}
				}
			}
		}
	}
	return out
}

// TestModStarMatchesSCCClosure: closing modStar over the callers of the
// direct modifiers only gives the same sets as closing over every SCC,
// on every cluster of recursive random programs and a Table-1 workload.
func TestModStarMatchesSCCClosure(t *testing.T) {
	cfg := synth.DefaultRandomConfig()
	cfg.Funcs, cfg.Recursion = 4, true
	srcs := map[string]string{"autofs@0.05": synth.Generate(mustBenchmark(t, "autofs"), 0.05)}
	for seed := int64(1); seed <= 6; seed++ {
		srcs[fmt.Sprintf("random seed %d", seed)] = synth.RandomSource(rand.New(rand.NewSource(seed)), cfg)
	}
	for name, src := range srcs {
		h := newHarness(t, src)
		covers := append(cluster.BuildAndersen(h.prog, h.sa, 2), cluster.BuildWhole(h.prog, h.sa))
		nonEmpty := 0
		for _, cl := range covers {
			e := NewEngine(h.prog, h.cg, h.sa, cl)
			want := sccModStar(e)
			if !reflect.DeepEqual(e.modStar, want) {
				t.Errorf("%s, cluster %d: modStar = %v, want %v", name, cl.ID, e.modStar, want)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Errorf("%s: no cluster modifies anything; the comparison is vacuous", name)
		}
	}
}

func mustBenchmark(t *testing.T, name string) synth.Benchmark {
	t.Helper()
	b, ok := synth.FindBenchmark(name)
	if !ok {
		t.Fatalf("no Table-1 benchmark %q", name)
	}
	return b
}
