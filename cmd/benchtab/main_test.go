package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bootstrap/internal/bench"
)

// resetFlags restores this command's flags (not the test framework's) to
// their defaults between runs.
func resetFlags() {
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			_ = f.Value.Set(f.DefValue)
		}
	})
}

func TestRunTableSmoke(t *testing.T) {
	resetFlags()
	_ = flag.Set("rows", "sock")
	_ = flag.Set("scale", "0.05")
	_ = flag.Set("skip-monolithic", "true")
	_ = flag.Set("timings", "true")
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("table run: %v", err)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Errorf("missing table header:\n%s", out.String())
	}

	resetFlags()
	_ = flag.Set("rows", "nosuchbench")
	if err := run(&out); err == nil {
		t.Error("unknown row should error")
	}
}

func TestRunSweepSmoke(t *testing.T) {
	resetFlags()
	_ = flag.Set("sweep", "sock")
	_ = flag.Set("scale", "0.05")
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("sweep run: %v", err)
	}
	if !strings.Contains(out.String(), "ablation") {
		t.Errorf("missing sweep header:\n%s", out.String())
	}

	resetFlags()
	_ = flag.Set("sweep", "nosuchbench")
	if err := run(&out); err == nil {
		t.Error("unknown sweep benchmark should error")
	}
}

// TestRunFSCSJSONAndAssert exercises the whole bench-gate loop end to
// end: measure a cold report into a warm cache directory, re-measure
// (now fully warm), then gate the second report against the first. The
// two are measured independently, so this checks the counts really are
// reproducible.
func TestRunFSCSJSONAndAssert(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	freshPath := filepath.Join(dir, "fresh.json")

	measure := func(path string) {
		resetFlags()
		_ = flag.Set("rows", "sock")
		_ = flag.Set("scale", "0.05")
		_ = flag.Set("perf-reps", "1")
		_ = flag.Set("cache-dir", filepath.Join(dir, "cache"))
		_ = flag.Set("fscs-json", path)
		var out bytes.Buffer
		if err := run(&out); err != nil {
			t.Fatalf("fscs-json run: %v", err)
		}
	}
	measure(basePath)
	measure(freshPath) // warm: the first run populated the cache dir

	fr, err := bench.ReadFSCSJSONFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Points[0].CacheHitRate != 1.0 {
		t.Fatalf("second run hit rate = %v, want 1.0", fr.Points[0].CacheHitRate)
	}

	resetFlags()
	_ = flag.Set("assert", "true")
	_ = flag.Set("baseline", basePath)
	_ = flag.Set("fresh", freshPath)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("fresh against an independent base should pass: %v", err)
	}
	if !strings.Contains(out.String(), "bench gate") {
		t.Errorf("missing gate summary:\n%s", out.String())
	}
}

func TestRunAssertSeededRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tuples int64) string {
		rep := bench.FSCSPerfReport{
			GoVersion: "1.24", Scale: 0.12, Reps: 3,
			Points: []bench.FSCSPerfPoint{{
				Bench: "sock", Workers: 1, FSCSTuples: tuples, Allocs: 20000, CacheHitRate: 1.0,
			}},
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := bench.WriteFSCSJSON(f, rep); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	base := write("base.json", 5000)
	regressed := write("fresh.json", 5001) // seeded work-counter regression

	resetFlags()
	_ = flag.Set("assert", "true")
	_ = flag.Set("baseline", base)
	_ = flag.Set("fresh", regressed)
	var out bytes.Buffer
	if err := run(&out); err == nil {
		t.Fatal("seeded fscs_tuples regression must fail the gate")
	}

	resetFlags()
	_ = flag.Set("assert", "true")
	_ = flag.Set("baseline", filepath.Join(dir, "missing.json"))
	_ = flag.Set("fresh", regressed)
	if err := run(&out); err == nil {
		t.Error("missing baseline should error")
	}
}
