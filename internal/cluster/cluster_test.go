package cluster

import (
	"strings"
	"testing"

	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

func setup(t *testing.T, src string) (*ir.Program, *steens.Analysis) {
	t.Helper()
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p, steens.Analyze(p)
}

func v(t *testing.T, p *ir.Program, name string) ir.VarID {
	t.Helper()
	id, ok := p.VarByName[name]
	if !ok {
		t.Fatalf("no variable %q", name)
	}
	return id
}

const figure3Src = `
	int a, b;
	int *x, *y, *p;
	void main() {
		x = &a;
		y = &b;
		p = x;
		*x = *y;
	}
`

// TestFigure3RelevantStatements reproduces the paper's Figure 3 slicing:
// for partition P = {a,b}, St_P contains x=&a, y=&b and the store *x=*y,
// but NOT 3a: p = x.
func TestFigure3RelevantStatements(t *testing.T) {
	p, sa := setup(t, figure3Src)
	P := []ir.VarID{v(t, p, "a"), v(t, p, "b")}
	vars, stmts := RelevantStatements(p, sa, P)

	var rendered []string
	for _, loc := range stmts {
		rendered = append(rendered, p.StmtString(loc))
	}
	joined := strings.Join(rendered, "; ")
	for _, want := range []string{"x = &a", "y = &b", "*x ="} {
		if !strings.Contains(joined, want) {
			t.Errorf("St_P = %q missing %q", joined, want)
		}
	}
	if strings.Contains(joined, "p = x") {
		t.Errorf("St_P = %q must exclude the irrelevant statement p = x", joined)
	}

	varNames := map[string]bool{}
	for _, vv := range vars {
		varNames[p.VarName(vv)] = true
	}
	for _, want := range []string{"a", "b", "x", "y"} {
		if !varNames[want] {
			t.Errorf("V_P missing %s (got %v)", want, varNames)
		}
	}
	if varNames["p"] {
		t.Errorf("V_P = %v must not contain p", varNames)
	}
}

func TestRelevantStatementsDirectOnly(t *testing.T) {
	p, sa := setup(t, `
		int a, b;
		int *x, *y;
		void main() {
			x = &a;
			y = &b;
		}
	`)
	_, stmts := RelevantStatements(p, sa, []ir.VarID{v(t, p, "x")})
	var rendered []string
	for _, loc := range stmts {
		rendered = append(rendered, p.StmtString(loc))
	}
	joined := strings.Join(rendered, "; ")
	if !strings.Contains(joined, "x = &a") {
		t.Errorf("St_{x} = %q missing x = &a", joined)
	}
	if strings.Contains(joined, "y = &b") {
		t.Errorf("St_{x} = %q must not include unrelated y = &b", joined)
	}
}

func TestSteensgaardCoverDisjointAndTotal(t *testing.T) {
	p, sa := setup(t, figure3Src)
	cs := BuildSteensgaard(p, sa)
	if len(cs) == 0 {
		t.Fatal("no clusters")
	}
	seen := map[ir.VarID]int{}
	for _, c := range cs {
		for _, m := range c.Pointers {
			seen[m]++
			if seen[m] > 1 {
				t.Fatalf("pointer %s in two Steensgaard clusters", p.VarName(m))
			}
		}
	}
	// Every variable participating in aliasing is covered.
	for _, name := range []string{"a", "b", "x", "y", "p"} {
		if seen[v(t, p, name)] == 0 {
			t.Errorf("%s not covered by the Steensgaard cover", name)
		}
	}
	// p and x must land in the same cluster.
	for _, c := range cs {
		hasP, hasX := c.HasPointer(v(t, p, "p")), c.HasPointer(v(t, p, "x"))
		if hasP != hasX {
			t.Error("p and x must share a Steensgaard cluster")
		}
	}
}

func TestWholeBaseline(t *testing.T) {
	p, sa := setup(t, figure3Src)
	w := BuildWhole(p, sa)
	if w.Size() != p.NumVars() {
		t.Errorf("whole cluster size = %d, want %d", w.Size(), p.NumVars())
	}
	if w.Kind != KindWhole {
		t.Errorf("kind = %v", w.Kind)
	}
	// Must contain every pointer statement of the program.
	count := 0
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore, ir.OpNullify:
			count++
			if !w.HasStmt(n.Loc) {
				t.Errorf("whole cluster missing statement %s", p.StmtString(n.Loc))
			}
		}
	}
	if count == 0 {
		t.Fatal("test program has no statements")
	}
}

func TestAndersenThresholdKeepsSmallPartitions(t *testing.T) {
	p, sa := setup(t, figure3Src)
	cs := BuildAndersen(p, sa, 1000)
	for _, c := range cs {
		if c.Kind != KindSteensgaard {
			t.Errorf("threshold above all partition sizes should keep Steensgaard clusters, got %v", c.Kind)
		}
	}
}

// TestAndersenRefinesLargePartition builds a program where one Steensgaard
// partition is large (a chain q = p1; q = p2; ... unifies all contents)
// but Andersen keeps the pi precise, so clustering splits the partition.
func TestAndersenRefinesLargePartition(t *testing.T) {
	src := `
		int a0, a1, a2, a3, a4, a5;
		int *p0, *p1, *p2, *p3, *p4, *p5;
		int *q;
		void main() {
			p0 = &a0; p1 = &a1; p2 = &a2; p3 = &a3; p4 = &a4; p5 = &a5;
			q = p0; q = p1; q = p2; q = p3; q = p4; q = p5;
		}
	`
	p, sa := setup(t, src)
	// All of p0..p5, q share one Steensgaard partition.
	if !sa.SamePartition(v(t, p, "p0"), v(t, p, "p5")) {
		t.Fatal("setup: expected one big Steensgaard partition")
	}
	steensCover := BuildSteensgaard(p, sa)
	andersenCover := BuildAndersen(p, sa, 3) // force refinement
	ss, as := CoverStats(steensCover), CoverStats(andersenCover)
	if as.MaxSize >= ss.MaxSize {
		t.Errorf("Andersen max cluster %d should be smaller than Steensgaard %d", as.MaxSize, ss.MaxSize)
	}
	// Each Andersen cluster that came from refinement holds q plus one pi.
	for _, c := range andersenCover {
		if c.Kind != KindAndersen {
			continue
		}
		if c.Size() > 2 {
			t.Errorf("refined cluster too large: %v", c)
		}
	}
	// Disjunctive cover: q appears in several clusters.
	qCount := 0
	for _, c := range andersenCover {
		if c.HasPointer(v(t, p, "q")) {
			qCount++
		}
	}
	if qCount < 2 {
		t.Errorf("q should appear in multiple Andersen clusters, got %d", qCount)
	}
}

func TestSyntacticCoarserThanSteensgaard(t *testing.T) {
	p, sa := setup(t, figure3Src)
	syn := BuildSyntactic(p, sa)
	st := BuildSteensgaard(p, sa)
	// The syntactic closure links everything through *x = *y and p = x,
	// so its max cluster is at least as large as Steensgaard's.
	if CoverStats(syn).MaxSize < CoverStats(st).MaxSize {
		t.Errorf("syntactic max %d < steensgaard max %d; expected coarser-or-equal",
			CoverStats(syn).MaxSize, CoverStats(st).MaxSize)
	}
	// Specifically, a and p end up syntactically connected though they are
	// in different Steensgaard partitions.
	var together bool
	for _, c := range syn {
		if c.HasPointer(v(t, p, "a")) && c.HasPointer(v(t, p, "p")) {
			together = true
		}
	}
	if !together {
		t.Error("syntactic clustering should connect a and p transitively")
	}
}

func TestSizeHistogram(t *testing.T) {
	p, sa := setup(t, figure3Src)
	cs := BuildSteensgaard(p, sa)
	h := SizeHistogram(cs)
	total := 0
	for size, count := range h {
		if size <= 0 || count <= 0 {
			t.Errorf("bad histogram entry %d -> %d", size, count)
		}
		total += count
	}
	if total != len(cs) {
		t.Errorf("histogram covers %d clusters, want %d", total, len(cs))
	}
}

func TestClusterFuncs(t *testing.T) {
	p, sa := setup(t, `
		int *g1, *g2; int a;
		void touches() { g1 = &a; }
		void untouched() { int *z; int b; z = &b; }
		void main() { g2 = g1; touches(); }
	`)
	cs := BuildSteensgaard(p, sa)
	var gc *Cluster
	for _, c := range cs {
		if c.HasPointer(v(t, p, "g1")) {
			gc = c
		}
	}
	if gc == nil {
		t.Fatal("no cluster for g1")
	}
	fnNames := map[string]bool{}
	for _, f := range gc.Funcs {
		fnNames[p.Func(f).Name] = true
	}
	if !fnNames["touches"] || !fnNames["main"] {
		t.Errorf("cluster funcs = %v, want touches and main", fnNames)
	}
	if fnNames["untouched"] {
		t.Errorf("cluster funcs = %v must not include untouched (summary skipping!)", fnNames)
	}
}

func TestCoverStatsOverlap(t *testing.T) {
	p, sa := setup(t, figure3Src)
	// Disjoint Steensgaard cover: overlap exactly 1.
	st := CoverStats(BuildSteensgaard(p, sa))
	if got := st.Overlap(); got != 1.0 {
		t.Errorf("Steensgaard cover overlap = %v, want 1.0 (disjoint)", got)
	}
	if st.Covered == 0 || st.TotalSize != st.Covered {
		t.Errorf("disjoint cover: total %d vs covered %d", st.TotalSize, st.Covered)
	}
	// A forced-Andersen cover over the shared-sink program overlaps: q is
	// in several clusters.
	src := `
		int a0, a1, a2;
		int *p0, *p1, *p2, *q;
		void main() {
			p0 = &a0; p1 = &a1; p2 = &a2;
			q = p0; q = p1; q = p2;
		}
	`
	p2prog, sa2 := setup(t, src)
	as := CoverStats(BuildAndersen(p2prog, sa2, 2))
	if as.Overlap() <= 1.0 {
		t.Errorf("disjunctive cover overlap = %v, want > 1", as.Overlap())
	}
	if (Stats{}).Overlap() != 0 {
		t.Error("empty stats overlap should be 0")
	}
}
