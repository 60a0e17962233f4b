// Package callgraph builds the function call graph of an IR program
// from its direct call nodes: callees, callers, call sites and
// reachability.
//
// The builder uses direct call edges only, so programs with function
// pointers should be devirtualized first (frontend.Devirtualize).
package callgraph

import (
	"sort"

	"bootstrap/internal/ir"
)

// Graph is a call graph.
type Graph struct {
	prog *ir.Program

	callees map[ir.FuncID][]ir.FuncID // deduped, sorted
	callers map[ir.FuncID][]ir.FuncID // deduped, sorted

	// sites[g] lists, per caller, the call nodes invoking g.
	sites map[ir.FuncID][]ir.Loc
}

// Build constructs the call graph of p from direct call nodes.
func Build(p *ir.Program) *Graph {
	g := &Graph{
		prog:    p,
		callees: map[ir.FuncID][]ir.FuncID{},
		callers: map[ir.FuncID][]ir.FuncID{},
		sites:   map[ir.FuncID][]ir.Loc{},
	}
	type edge struct{ from, to ir.FuncID }
	seen := map[edge]bool{}
	for _, n := range p.Nodes {
		if n.Stmt.Op != ir.OpCall || n.Stmt.Callee == ir.NoFunc {
			continue
		}
		caller, callee := n.Fn, n.Stmt.Callee
		g.sites[callee] = append(g.sites[callee], n.Loc)
		e := edge{caller, callee}
		if !seen[e] {
			seen[e] = true
			g.callees[caller] = append(g.callees[caller], callee)
			g.callers[callee] = append(g.callers[callee], caller)
		}
	}
	for _, m := range []map[ir.FuncID][]ir.FuncID{g.callees, g.callers} {
		for k := range m {
			sort.Slice(m[k], func(i, j int) bool { return m[k][i] < m[k][j] })
		}
	}
	return g
}

// Callees returns the functions f calls directly.
func (g *Graph) Callees(f ir.FuncID) []ir.FuncID { return g.callees[f] }

// Callers returns the functions calling f.
func (g *Graph) Callers(f ir.FuncID) []ir.FuncID { return g.callers[f] }

// CallSitesOf returns the call nodes that invoke f, across all callers.
func (g *Graph) CallSitesOf(f ir.FuncID) []ir.Loc { return g.sites[f] }

// CallSitesIn returns the call nodes within caller that invoke callee.
func (g *Graph) CallSitesIn(caller, callee ir.FuncID) []ir.Loc {
	var out []ir.Loc
	for _, loc := range g.sites[callee] {
		if g.prog.Node(loc).Fn == caller {
			out = append(out, loc)
		}
	}
	return out
}

// Reachable returns the functions reachable from entry (inclusive), sorted.
func (g *Graph) Reachable(entry ir.FuncID) []ir.FuncID {
	seen := map[ir.FuncID]bool{entry: true}
	stack := []ir.FuncID{entry}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.callees[f] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	out := make([]ir.FuncID, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
