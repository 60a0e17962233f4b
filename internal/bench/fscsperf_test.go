package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bootstrap/internal/synth"
)

func perfRows(t *testing.T, names ...string) []synth.Benchmark {
	t.Helper()
	var rows []synth.Benchmark
	for _, n := range names {
		b, ok := synth.FindBenchmark(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		rows = append(rows, b)
	}
	return rows
}

func TestFSCSPerfReport(t *testing.T) {
	rows := perfRows(t, "sock", "ctrace")
	rep, err := FSCSPerf(rows, Options{Scale: 0.05}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(rows)*len(fscsWorkersAxis) {
		t.Fatalf("got %d points, want %d", len(rep.Points), len(rows)*len(fscsWorkersAxis))
	}
	for i, p := range rep.Points {
		row, wi := rows[i/len(fscsWorkersAxis)], i%len(fscsWorkersAxis)
		if p.Bench != row.Name {
			t.Errorf("point %d is %s, want %s (fixed cover order)", i, p.Bench, row.Name)
		}
		if p.Workers != fscsWorkersAxis[wi] {
			t.Errorf("point %d has workers=%d, want %d", i, p.Workers, fscsWorkersAxis[wi])
		}
		if p.Clusters <= 0 || p.Pointers <= 0 {
			t.Errorf("%s: empty shape: %+v", p.Bench, p)
		}
		if p.PipelinedProgramNS <= 0 || p.WarmProgramNS <= 0 {
			t.Errorf("%s/w%d: program times not measured: %+v", p.Bench, p.Workers, p)
		}
		if wi == 0 {
			if p.InternedClusterNS <= 0 || p.Allocs <= 0 || p.AllocBytes <= 0 ||
				p.FSCSTuples <= 0 || p.FSCSSummaries <= 0 || p.AndersenPasses <= 0 {
				t.Errorf("%s/w%d: work or allocation counts not measured: %+v", p.Bench, p.Workers, p)
			}
			if p.PartitionMax <= 0 || p.ClusterMax <= 0 ||
				p.PartitionP50 > p.PartitionP90 || p.PartitionP90 > p.PartitionMax ||
				p.ClusterP50 > p.ClusterP90 || p.ClusterP90 > p.ClusterMax {
				t.Errorf("%s: bad size histogram: %+v", p.Bench, p)
			}
			if p.PrecisePartitionMax <= 0 || p.PrecisePartitionMax > p.PartitionMax {
				t.Errorf("%s: precise partition max %d outside (0, %d]", p.Bench, p.PrecisePartitionMax, p.PartitionMax)
			}
		} else if p.InternedClusterNS != 0 || p.Allocs != 0 || p.FSCSTuples != 0 || p.PartitionMax != 0 {
			t.Errorf("%s/w%d: Workers=1-only columns set: %+v", p.Bench, p.Workers, p)
		}
	}
	if rep.GoVersion == "" || strings.Count(rep.GoVersion, ".") != 1 {
		t.Errorf("go_version = %q, want major.minor", rep.GoVersion)
	}
	var buf bytes.Buffer
	if err := WriteFSCSJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back FSCSPerfReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("BENCH_fscs.json does not round-trip: %v", err)
	}
	if len(back.Points) != len(rep.Points) || back.Scale != rep.Scale {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, rep)
	}
}
