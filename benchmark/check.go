package main

import (
	"bootstrap/internal/andersen"
	"bootstrap/internal/ir"
)

// Answer checks. Each failed check is one failed operation (see
// outcome.checkFail) and makes the run's result incorrect.

// checkWithin checks a batch answer against a separately computed
// flow-insensitive Andersen solution, the upper end of the soundness
// lattice exact ⊆ FSCS ⊆ Andersen: a points-to set must be a subset of
// Andersen's, and a may-alias verdict may only be true where Andersen's
// is.
func checkWithin(out *outcome, prog *ir.Program, q query, got answer, ref *andersen.Analysis) {
	if q.mayAlias {
		if got.alias && !ref.MayAlias(q.p, q.q) {
			out.checkFail("mayalias(%s, %s) at exit of %s: true, Andersen says false",
				prog.VarName(q.p), prog.VarName(q.q), prog.Func(q.at).Name)
		}
		return
	}
	if !subset(got.objs, ref.PointsTo(q.p)) {
		out.checkFail("pointsto(%s) at exit of %s: %v not within Andersen's %v",
			prog.VarName(q.p), prog.Func(q.at).Name, names(prog, got.objs), names(prog, ref.PointsTo(q.p)))
	}
}

// checkEqual checks an answer against a reference answer to the same
// query on the same program: equal when the answer is precise, a
// superset (sound widening) when it is not.
func checkEqual(out *outcome, prog *ir.Program, q query, got, want answer) {
	ok := true
	switch {
	case q.mayAlias && got.precise:
		ok = got.alias == want.alias
	case q.mayAlias:
		ok = got.alias || !want.alias
	case got.precise:
		ok = subset(got.objs, want.objs) && subset(want.objs, got.objs)
	default:
		ok = subset(want.objs, got.objs)
	}
	if ok {
		return
	}
	if q.mayAlias {
		out.checkFail("mayalias(%s, %s) at exit of %s: %v (precise=%v), reference %v",
			prog.VarName(q.p), prog.VarName(q.q), prog.Func(q.at).Name, got.alias, got.precise, want.alias)
		return
	}
	out.checkFail("pointsto(%s) at exit of %s: %v (precise=%v), reference %v",
		prog.VarName(q.p), prog.Func(q.at).Name, names(prog, got.objs), got.precise, names(prog, want.objs))
}

// corruptAnswer falsifies a points-to answer: it marks it precise and
// adds a variable from outside allowed, the set a correct answer must stay
// within.
func corruptAnswer(prog *ir.Program, a answer, allowed []ir.VarID) answer {
	a.precise = true
	bogus := ir.VarID(0)
	for i := len(prog.Vars) - 1; i >= 0; i-- {
		if !contains(allowed, ir.VarID(i)) {
			bogus = ir.VarID(i)
			break
		}
	}
	a.objs = append(append([]ir.VarID(nil), a.objs...), bogus)
	return a
}

func subset(xs, ys []ir.VarID) bool {
	set := make(map[ir.VarID]bool, len(ys))
	for _, y := range ys {
		set[y] = true
	}
	for _, x := range xs {
		if !set[x] {
			return false
		}
	}
	return true
}

func contains(xs []ir.VarID, v ir.VarID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func names(prog *ir.Program, vs []ir.VarID) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = prog.VarName(v)
	}
	return out
}
