package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bootstrap/internal/exact"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// TestClassicQueriesMatchContext holds the classic query methods to
// their context-first twins on random recursive programs, eager and
// lazy, under tight and loose cluster budgets (no retries, so starved
// clusters demote). Two analyses of the same configuration are queried
// in the same order, one through each API, so engine state evolves
// identically; every answer at every function exit must agree,
// precision flags included, and every pair the exact analysis says may
// alias must still be reported.
func TestClassicQueriesMatchContext(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	gen := synth.DefaultRandomConfig()
	gen.Funcs = 3
	gen.Recursion = true
	ctx := context.Background()
	for seed := int64(0); seed < 6; seed++ {
		src := synth.RandomSource(rand.New(rand.NewSource(seed)), gen)
		prog, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		r := exact.Explore(prog, exact.Options{})
		var exits []ir.Loc
		for fid := range prog.Funcs {
			exits = append(exits, prog.Func(ir.FuncID(fid)).Exit)
		}
		for _, lazy := range []bool{false, true} {
			for _, budget := range []int64{30, 300, 3000} {
				cfg := Config{Mode: ModeAndersen, Workers: 2, AndersenThreshold: 4,
					Lazy: lazy, ClusterBudget: budget, Retries: -1}
				name := fmt.Sprintf("seed %d lazy=%v budget=%d", seed, lazy, budget)
				classic, err := AnalyzeProgram(prog, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				twin, err := AnalyzeProgram(prog, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				n := prog.NumVars()
				for _, loc := range exits {
					for i := 0; i < n; i++ {
						p := ir.VarID(i)
						pts, ptsOK := classic.PointsTo(p, loc)
						cpts, cptsOK := twin.PointsToContext(ctx, p, loc)
						if !reflect.DeepEqual(pts, cpts) || ptsOK != cptsOK {
							t.Errorf("%s: PointsTo(%s) at L%d = %v,%v; PointsToContext = %v,%v",
								name, prog.VarName(p), loc, pts, ptsOK, cpts, cptsOK)
						}
						objs, null, uninit, precise := classic.DerefState(p, loc)
						cobjs, cnull, cuninit, cprecise := twin.DerefStateContext(ctx, p, loc)
						if !reflect.DeepEqual(objs, cobjs) || null != cnull || uninit != cuninit || precise != cprecise {
							t.Errorf("%s: DerefState(%s) at L%d = %v,%v,%v,%v; DerefStateContext = %v,%v,%v,%v",
								name, prog.VarName(p), loc, objs, null, uninit, precise, cobjs, cnull, cuninit, cprecise)
						}
						for j := i + 1; j < n; j++ {
							q := ir.VarID(j)
							may := classic.MayAlias(p, q, loc)
							if cmay, _ := twin.MayAliasContext(ctx, p, q, loc); may != cmay {
								t.Errorf("%s: MayAlias(%s,%s) at L%d = %v; MayAliasContext = %v",
									name, prog.VarName(p), prog.VarName(q), loc, may, cmay)
							}
							if r.MayAlias(p, q, loc) && !may {
								t.Errorf("%s: UNSOUND: %s and %s alias at L%d (exact), MayAlias says no",
									name, prog.VarName(p), prog.VarName(q), loc)
							}
							must := classic.MustAlias(p, q, loc)
							if cmust, _ := twin.MustAliasContext(ctx, p, q, loc); must != cmust {
								t.Errorf("%s: MustAlias(%s,%s) at L%d = %v; MustAliasContext = %v",
									name, prog.VarName(p), prog.VarName(q), loc, must, cmust)
							}
						}
					}
				}
			}
		}
	}
}
