package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// fscsAnswersPath holds the FSCS engine's exact answers on two small
// synthetic workloads: PointsToAt(p, exit of entry) for every pointer
// of every cluster of the Andersen cover (threshold 8). The lattice
// tests check soundness only; this file pins precision too, so an
// engine change that loses (or invents) a points-to fact fails here.
const fscsAnswersPath = "testdata/fscs_answers.txt"

// fscsAnswers renders the engine's answers in the pinned file's layout:
// one line per (workload, cluster, pointer), "precise" or "unknown",
// then the sorted object names.
func fscsAnswers(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, row := range perfRows(t, "sock", "ctrace") {
		prog, err := frontend.LowerSource(synth.Generate(row, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		sa := steens.Analyze(prog)
		cg := callgraph.Build(prog)
		exit := prog.Func(prog.Entry).Exit
		for _, c := range cluster.BuildAndersen(prog, sa, 8) {
			eng := fscs.NewEngine(prog, cg, sa, c)
			if err := eng.Run(); err != nil {
				t.Fatalf("%s cluster %d: %v", row.Name, c.ID, err)
			}
			for _, p := range c.Pointers {
				objs, ok := eng.PointsToAt(p, exit)
				state := "precise"
				if !ok {
					state = "unknown"
				}
				fmt.Fprintf(&b, "%s c%d %s %s", row.Name, c.ID, prog.VarName(p), state)
				for _, o := range objs {
					fmt.Fprintf(&b, " %s", prog.VarName(o))
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestFSCSAnswersPinned compares the engine's answers with the pinned
// file line by line. On a mismatch the full fresh rendering is written
// to a temporary file so an intended change can be reviewed and copied
// over testdata/fscs_answers.txt.
func TestFSCSAnswersPinned(t *testing.T) {
	want, err := os.ReadFile(fscsAnswersPath)
	if err != nil {
		t.Fatal(err)
	}
	got := fscsAnswers(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	out := "(not saved)"
	if f, err := os.CreateTemp("", "fscs_answers-*.txt"); err == nil {
		_, _ = f.WriteString(got)
		f.Close()
		out = f.Name()
	}
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q\n(fresh answers written to %s)", fscsAnswersPath, i+1, g, w, out)
		}
	}
}
