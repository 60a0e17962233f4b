package callgraph

import (
	"testing"

	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
)

func build(t *testing.T, src string) (*ir.Program, *Graph) {
	t.Helper()
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p, Build(p)
}

func fid(t *testing.T, p *ir.Program, name string) ir.FuncID {
	t.Helper()
	f, ok := p.FuncByName[name]
	if !ok {
		t.Fatalf("no function %q", name)
	}
	return f
}

// recursive reports whether f can reach itself through a call.
func recursive(g *Graph, f ir.FuncID) bool {
	for _, c := range g.Callees(f) {
		for _, r := range g.Reachable(c) {
			if r == f {
				return true
			}
		}
	}
	return false
}

// sameFuncs reports whether got lists exactly want, in order.
func sameFuncs(got []ir.FuncID, want ...ir.FuncID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestSimpleChain(t *testing.T) {
	p, g := build(t, `
		void c() { }
		void b() { c(); }
		void a() { b(); }
		void main() { a(); }
	`)
	a, b, c, m := fid(t, p, "a"), fid(t, p, "b"), fid(t, p, "c"), fid(t, p, "main")
	if got := g.Callees(m); len(got) != 1 || got[0] != a {
		t.Errorf("Callees(main) = %v, want [a]", got)
	}
	if got := g.Callers(c); len(got) != 1 || got[0] != b {
		t.Errorf("Callers(c) = %v, want [b]", got)
	}
	if got := g.Callers(m); len(got) != 0 {
		t.Errorf("Callers(main) = %v, want none", got)
	}
	// Each function reaches exactly its suffix of the chain.
	if got := g.Reachable(c); !sameFuncs(got, c) {
		t.Errorf("Reachable(c) = %v, want [c]", got)
	}
	if got := g.Reachable(a); !sameFuncs(got, c, b, a) {
		t.Errorf("Reachable(a) = %v, want [c b a]", got)
	}
	if got := g.Reachable(m); !sameFuncs(got, c, b, a, m) {
		t.Errorf("Reachable(main) = %v, want [c b a main]", got)
	}
	for _, f := range []ir.FuncID{a, b, c, m} {
		if recursive(g, f) {
			t.Errorf("%s misreported as recursive", p.Func(f).Name)
		}
	}
}

func TestSelfRecursion(t *testing.T) {
	p, g := build(t, `
		void r() { if (*) { r(); } }
		void main() { r(); }
	`)
	r, m := fid(t, p, "r"), fid(t, p, "main")
	if got := g.Callees(r); !sameFuncs(got, r) {
		t.Errorf("Callees(r) = %v, want [r]", got)
	}
	if got := g.Callers(r); !sameFuncs(got, r, m) {
		t.Errorf("Callers(r) = %v, want [r main]", got)
	}
	if got := g.Reachable(r); !sameFuncs(got, r) {
		t.Errorf("Reachable(r) = %v, want [r]: self-recursion reaches nothing else", got)
	}
	if !recursive(g, r) || recursive(g, m) {
		t.Error("only r is recursive")
	}
}

func TestMutualRecursion(t *testing.T) {
	p, g := build(t, `
		void odd(int *x) { if (*) { even(x); } }
		void even(int *x) { if (*) { odd(x); } }
		void main() { even(null); }
	`)
	odd, even, m := fid(t, p, "odd"), fid(t, p, "even"), fid(t, p, "main")
	if got := g.Callees(odd); !sameFuncs(got, even) {
		t.Errorf("Callees(odd) = %v, want [even]", got)
	}
	if got := g.Callers(even); !sameFuncs(got, odd, m) {
		t.Errorf("Callers(even) = %v, want [odd main]", got)
	}
	// odd and even reach each other but not main.
	for _, f := range []ir.FuncID{odd, even} {
		if got := g.Reachable(f); !sameFuncs(got, odd, even) {
			t.Errorf("Reachable(%s) = %v, want [odd even]", p.Func(f).Name, got)
		}
	}
	if !recursive(g, odd) || !recursive(g, even) {
		t.Error("mutually recursive functions not detected")
	}
	if recursive(g, m) {
		t.Error("main is not recursive")
	}
}

func TestCallSites(t *testing.T) {
	p, g := build(t, `
		void h(int *x) { }
		void f() { h(null); h(null); }
		void k() { h(null); }
		void main() { f(); k(); }
	`)
	h, f, k := fid(t, p, "h"), fid(t, p, "f"), fid(t, p, "k")
	if got := len(g.CallSitesOf(h)); got != 3 {
		t.Errorf("CallSitesOf(h) = %d sites, want 3", got)
	}
	if got := len(g.CallSitesIn(f, h)); got != 2 {
		t.Errorf("CallSitesIn(f,h) = %d, want 2", got)
	}
	if got := len(g.CallSitesIn(k, h)); got != 1 {
		t.Errorf("CallSitesIn(k,h) = %d, want 1", got)
	}
	for _, loc := range g.CallSitesOf(h) {
		if p.Node(loc).Stmt.Op != ir.OpCall {
			t.Errorf("call site L%d is not a call node", loc)
		}
	}
}

func TestReachable(t *testing.T) {
	p, g := build(t, `
		void used() { }
		void dead() { deadCallee(); }
		void deadCallee() { }
		void main() { used(); }
	`)
	reach := g.Reachable(p.Entry)
	names := map[string]bool{}
	for _, f := range reach {
		names[p.Func(f).Name] = true
	}
	if !names["main"] || !names["used"] {
		t.Errorf("Reachable = %v, want main and used", names)
	}
	if names["dead"] || names["deadCallee"] {
		t.Errorf("Reachable = %v, must not include dead code", names)
	}
}
