// Nullcheck: a second client of the bootstrapped analysis — a
// flow-sensitive null/dangling-dereference checker. It demonstrates what
// flow sensitivity buys over Andersen's analysis: the same dereference is
// safe or unsafe depending on statement order, which a flow-insensitive
// points-to set cannot distinguish.
//
//	go run ./examples/nullcheck
package main

import (
	"context"
	"fmt"
	"log"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
)

const program = `
	int a;
	int *ok, *bad, *freed, *maybe;
	int *sink;

	void reset() { bad = null; }

	void main() {
		// Safe: null is overwritten before the dereference.
		ok = null;
		ok = &a;
		sink = *ok;

		// Bug: the helper nulls bad between assignment and use.
		bad = &a;
		reset();
		sink = *bad;

		// Bug: use after free.
		freed = malloc;
		*freed = 1;
		free(freed);
		sink = *freed;

		// Maybe: null on one branch only.
		maybe = &a;
		if (*) { maybe = null; }
		sink = *maybe;
	}
`

func main() {
	analysis, err := core.AnalyzeSource(program, core.Config{Mode: core.ModeAndersen})
	if err != nil {
		log.Fatal(err)
	}
	rep := check.Run(context.Background(), analysis, check.Options{
		Passes: []check.Pass{&check.NullcheckPass{}},
	})
	findings := rep.Diagnostics()
	fmt.Printf("%d suspicious dereferences:\n", len(findings))
	for _, d := range findings {
		fmt.Println("  " + d.Message)
	}
	fmt.Println("\nnote: the dereference of `ok` is NOT reported — the")
	fmt.Println("flow-sensitive analysis sees the reassignment, which a")
	fmt.Println("flow-insensitive points-to analysis cannot.")
}
