package fscs

import (
	"sort"
	"sync"

	"bootstrap/internal/ir"
)

// skeleton is one function's CFG contracted to the nodes that can change
// a token of this engine's cluster — the walk side of Prog_P. Theorem 6
// makes every other node a skip for the cluster, so a backward walk
// carries its token across them unchanged; the skeleton does that
// crossing once, when it is built, instead of once per walked token.
//
// A node is kept when transfer may act on some token there: the entry
// and exit, every St_P statement, every assume over two V_P pointers,
// every direct call whose callee may modify V_P, and every indirect
// call. A kept node's contracted predecessors are the kept nodes reached
// backwards from it through dropped nodes only. Kept nodes are numbered
// densely in Func.Nodes order, so locs is sorted by ir.Node.Index, and
// their contracted predecessors are stored in CSR form: node d's are
// preds[off[d]:off[d+1]].
type skeleton struct {
	locs  []ir.Loc
	off   []int32
	preds []int32
	entry int32

	// starts memoizes, per dropped location a walk has started at, the
	// kept nodes reached backwards from its predecessors. A kept
	// location needs no entry: its CSR predecessors are that set.
	starts map[ir.Loc][]int32
}

// keeps reports whether n, a node of fn, can change a token of the
// cluster and so stays in fn's skeleton. Every node it drops is one
// transfer passes every token through unchanged.
func (e *Engine) keeps(fn *ir.Func, n *ir.Node) bool {
	if n.Loc == fn.Entry || n.Loc == fn.Exit {
		return true
	}
	st := &n.Stmt
	switch st.Op {
	case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore, ir.OpNullify:
		return e.cl.HasStmt(n.Loc)
	case ir.OpAssumeEq, ir.OpAssumeNeq:
		return e.cl.HasVar(st.Dst) && e.cl.HasVar(st.Src)
	case ir.OpCall:
		return st.Callee == ir.NoFunc || len(e.modStar[st.Callee]) > 0
	}
	return false
}

// skeletonOf returns f's skeleton, building it on the first walk of f.
// Rebind drops every skeleton: an edit may splice nodes into a walked
// function or rebuild its body, which changes the contraction.
func (e *Engine) skeletonOf(f ir.FuncID) *skeleton {
	if sk := e.skels[f]; sk != nil {
		return sk
	}
	if e.skels == nil {
		e.skels = map[ir.FuncID]*skeleton{}
	}
	sk := e.buildSkeleton(e.prog.Func(f))
	e.skels[f] = sk
	return sk
}

// skelBuild is the temporary state of buildSkeleton and startsAt,
// pooled across engines (and goroutines) so neither allocates per node
// of the function. id and mark are indexed by ir.Node.Index.
type skelBuild struct {
	id, mark, off, preds []int32
	stack                []ir.Loc
}

var skelBuilds = sync.Pool{New: func() any { return new(skelBuild) }}

// buildSkeleton contracts fn. Each kept node's predecessors come from a
// backward search that stops at kept nodes; a per-node mark holding the
// searching node's number makes each search visit a node once, so loops
// of dropped nodes terminate, and a dead-end region (no kept node
// behind it) contributes nothing. Only the kept nodes are stored; the
// per-node numbering and marks are pooled temporaries.
func (e *Engine) buildSkeleton(fn *ir.Func) *skeleton {
	b := skelBuilds.Get().(*skelBuild)
	defer skelBuilds.Put(b)
	n := len(fn.Nodes)
	if cap(b.id) < n {
		b.id, b.mark = make([]int32, n), make([]int32, n)
	}
	id, mark := b.id[:n], b.mark[:n] // id: dense number, or -1 when dropped
	clear(mark)                      // mark: 1 + the last kept node whose search reached the node
	kept := 0
	for i, loc := range fn.Nodes {
		id[i] = -1
		if e.keeps(fn, e.prog.Node(loc)) {
			id[i] = int32(kept)
			kept++
		}
	}
	sk := &skeleton{locs: make([]ir.Loc, 0, kept)}
	for i, loc := range fn.Nodes {
		if id[i] >= 0 {
			sk.locs = append(sk.locs, loc)
		}
	}
	sk.entry = id[e.prog.Node(fn.Entry).Index]

	off, preds, stack := b.off[:0], b.preds[:0], b.stack
	off = append(off, 0)
	for d, loc := range sk.locs {
		tag := int32(d + 1)
		stack = append(stack[:0], e.prog.Node(loc).Preds...)
		for len(stack) > 0 {
			n := e.prog.Node(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if mark[n.Index] == tag {
				continue
			}
			mark[n.Index] = tag
			if k := id[n.Index]; k >= 0 {
				preds = append(preds, k)
				continue
			}
			stack = append(stack, n.Preds...)
		}
		off = append(off, int32(len(preds)))
	}
	b.off, b.preds, b.stack = off, preds, stack
	// One exactly sized array for both CSR halves: an engine keeps its
	// skeletons for life.
	csr := append(append(make([]int32, 0, len(off)+len(preds)), off...), preds...)
	sk.off, sk.preds = csr[:len(off):len(off)], csr[len(off):]
	return sk
}

// dense returns the dense number of loc in sk, or -1 when loc was
// dropped. locs is sorted by node index, so this is a binary search.
func (sk *skeleton) dense(p *ir.Program, loc ir.Loc) int32 {
	idx := p.Node(loc).Index
	d := sort.Search(len(sk.locs), func(i int) bool { return p.Node(sk.locs[i]).Index >= idx })
	if d < len(sk.locs) && sk.locs[d] == loc {
		return int32(d)
	}
	return -1
}

// startsAt returns the kept nodes of sk, the skeleton of at's function,
// that a walk from the predecessors of at (a function exit, a call site
// or a query location) starts at. Empty when those predecessors reach no
// kept node: such a walk has no sources.
func (e *Engine) startsAt(sk *skeleton, at *ir.Node) []int32 {
	if d := sk.dense(e.prog, at.Loc); d >= 0 {
		return sk.preds[sk.off[d]:sk.off[d+1]]
	}
	if s, ok := sk.starts[at.Loc]; ok {
		return s
	}
	fn := e.prog.Func(at.Fn)
	b := skelBuilds.Get().(*skelBuild)
	defer skelBuilds.Put(b)
	if cap(b.mark) < len(fn.Nodes) {
		b.id, b.mark = make([]int32, len(fn.Nodes)), make([]int32, len(fn.Nodes))
	}
	seen := b.mark[:len(fn.Nodes)]
	clear(seen)
	var out []int32
	stack := append(b.stack[:0], at.Preds...)
	for len(stack) > 0 {
		n := e.prog.Node(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if seen[n.Index] != 0 {
			continue
		}
		seen[n.Index] = 1
		if e.keeps(fn, n) {
			out = append(out, sk.dense(e.prog, n.Loc))
			continue
		}
		stack = append(stack, n.Preds...)
	}
	b.stack = stack
	if sk.starts == nil {
		sk.starts = map[ir.Loc][]int32{}
	}
	sk.starts[at.Loc] = out
	return out
}
