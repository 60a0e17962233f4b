package bench

import (
	"strings"
	"testing"
	"time"

	"bootstrap/internal/synth"
)

func smallOpt() Options {
	return Options{Scale: 0.15, Parts: 5, Budget: 200_000}
}

func TestRunRowShape(t *testing.T) {
	b, _ := synth.FindBenchmark("sock")
	row, err := RunRow(b, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if row.Pointers <= 0 {
		t.Error("no pointers measured")
	}
	if row.SteensNum <= 0 || row.AndersenNum <= 0 {
		t.Errorf("cluster counts: steens=%d andersen=%d", row.SteensNum, row.AndersenNum)
	}
	if row.AndersenMax > row.SteensMax {
		t.Errorf("Andersen max %d exceeds Steensgaard max %d", row.AndersenMax, row.SteensMax)
	}
	if row.SteensTime <= 0 {
		t.Error("Steensgaard time not measured")
	}
}

// TestClusteringBeatsMonolithic is the headline claim of Table 1: with a
// budget that chokes the unclustered analysis, the clustered analyses
// finish.
func TestClusteringBeatsMonolithic(t *testing.T) {
	b, _ := synth.FindBenchmark("pico") // a ">15min" row in the paper
	opt := smallOpt()
	opt.Budget = 50_000
	row, err := RunRow(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !row.NoClusterTimedOut {
		t.Skip("monolithic run finished within budget at this scale; shape check not applicable")
	}
	if row.SteensFSCS <= 0 || row.AndersenFSCS <= 0 {
		t.Error("clustered runs should complete")
	}
}

func TestFormatTable(t *testing.T) {
	b, _ := synth.FindBenchmark("ctrace")
	row, err := RunRow(b, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable([]Row{row})
	if !strings.Contains(out, "ctrace") || !strings.Contains(out, "#cluster") {
		t.Errorf("table output malformed:\n%s", out)
	}
	cmp := FormatComparison([]Row{row})
	if !strings.Contains(cmp, "ctrace") {
		t.Errorf("comparison output malformed:\n%s", cmp)
	}
	if len(row.AndersenTimes) != row.AndersenNum {
		t.Errorf("%d per-cluster times for %d Andersen clusters", len(row.AndersenTimes), row.AndersenNum)
	}
	if seq := sum(row.AndersenTimes); seq < row.AndersenFSCS {
		t.Errorf("sequential sum %v below the simulated max bin %v", seq, row.AndersenFSCS)
	}
}

// TestFormatTimings pins the timing columns' order and checks that
// andersen-cold is the sequential sum of the per-cluster times, not the
// simulated max bin printed as andersen-fscs-sim.
func TestFormatTimings(t *testing.T) {
	b, _ := synth.FindBenchmark("sock")
	row := Row{
		Bench:         b,
		SteensTime:    time.Millisecond,
		AndersenTimes: []time.Duration{1500 * time.Microsecond, 2 * time.Millisecond, 3 * time.Millisecond},
		AndersenFSCS:  3 * time.Millisecond,
		AndersenWarm:  400 * time.Microsecond,
	}
	lines := strings.Split(FormatTimings([]Row{row}), "\n")
	header := strings.Fields(lines[0])
	want := []string{"Example", "steens-partition", "andersen-cluster", "no-clustering",
		"steens-fscs-sim", "andersen-fscs-sim", "andersen-cold", "andersen-warm", "warm-cache"}
	if strings.Join(header, " ") != strings.Join(want, " ") {
		t.Fatalf("header = %v, want %v", header, want)
	}
	cells := map[string]string{}
	for i, f := range strings.Fields(lines[2]) {
		cells[header[i]] = f
	}
	for col, want := range map[string]string{
		"Example":           "sock",
		"andersen-fscs-sim": "3.0ms",
		"andersen-cold":     "6.5ms",
		"andersen-warm":     "400µs",
	} {
		if cells[col] != want {
			t.Errorf("%s = %q, want %q\n%s", col, cells[col], want, strings.Join(lines, "\n"))
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	b, _ := synth.FindBenchmark("autofs")
	sh, ah, err := Figure1(b, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) == 0 || len(ah) == 0 {
		t.Fatal("empty histograms")
	}
	// Figure 1's shape: high density at small sizes for both series.
	smallHeavy := func(h []HistPoint) bool {
		small, total := 0, 0
		for _, p := range h {
			total += p.Count
			if p.Size <= 8 {
				small += p.Count
			}
		}
		return small*2 > total
	}
	if !smallHeavy(sh) || !smallHeavy(ah) {
		t.Error("histograms should be dominated by small clusters")
	}
	// The Steensgaard max (isolated square to the far right) is at least
	// the Andersen max.
	if sh[len(sh)-1].Size < ah[len(ah)-1].Size {
		t.Errorf("max Steensgaard size %d < max Andersen size %d",
			sh[len(sh)-1].Size, ah[len(ah)-1].Size)
	}
	out := FormatHistogram(sh, ah)
	if !strings.Contains(out, "size") {
		t.Error("histogram format malformed")
	}
}

func TestThresholdSweep(t *testing.T) {
	b, _ := synth.FindBenchmark("raid")
	points, err := ThresholdSweep(b, []int{4, 8, 1000}, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// A threshold above every partition size means no Andersen refinement:
	// max cluster equals the Steensgaard max; a low threshold should not
	// increase it.
	if points[0].MaxSize > points[2].MaxSize {
		t.Errorf("low threshold max %d > no-refinement max %d", points[0].MaxSize, points[2].MaxSize)
	}
	if out := FormatSweep(points); !strings.Contains(out, "threshold") {
		t.Error("sweep format malformed")
	}
}

func TestRunTableStreams(t *testing.T) {
	var sb strings.Builder
	rows, err := RunTable([]synth.Benchmark{synth.Table1[0]}, smallOpt(), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !strings.Contains(sb.String(), "running") {
		t.Error("progress not streamed")
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d   time.Duration
		out string
		to  bool
	}{
		{90 * time.Second, "1.5min", false},
		{2500 * time.Millisecond, "2.50s", false},
		{1500 * time.Microsecond, "1.5ms", false},
		{500 * time.Microsecond, "500µs", false},
		{time.Second, "> budget", true},
	}
	for _, tc := range cases {
		if got := fmtDur(tc.d, tc.to); got != tc.out {
			t.Errorf("fmtDur(%v,%v) = %q, want %q", tc.d, tc.to, got, tc.out)
		}
	}
}
