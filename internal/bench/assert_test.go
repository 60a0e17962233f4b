package bench

import (
	"bytes"
	"strings"
	"testing"
)

func perfReport(points ...FSCSPerfPoint) FSCSPerfReport {
	return FSCSPerfReport{Date: "2026-01-01", GoVersion: "1.24", Scale: 0.12, Reps: 3, Points: points}
}

// perfPoint is a Workers=1 row whose work counters derive from tuples
// and whose allocation counts are allocs and 64 bytes per allocation.
func perfPoint(bench string, tuples, allocs int64, hitRate float64) FSCSPerfPoint {
	return FSCSPerfPoint{
		Bench: bench, Pointers: 100, Clusters: 10, Workers: 1,
		FSCSTuples: tuples, FSCSSummaries: tuples / 10,
		AndersenPasses: tuples / 3, AndersenDeltaEdgesFired: tuples / 7,
		Allocs: allocs, AllocBytes: 64 * allocs,
		PipelinedProgramNS: 1e6, CacheHitRate: hitRate,
	}
}

func TestAssertFSCSClean(t *testing.T) {
	base := perfReport(perfPoint("sock", 5000, 20000, 1.0), perfPoint("autofs", 9000, 40000, 1.0))
	// Less work and fewer allocations than the baseline is fine, and so
	// is any wall clock.
	fresh := perfReport(perfPoint("sock", 5000, 20000, 1.0), perfPoint("autofs", 8000, 39000, 1.0))
	fresh.Points[0].PipelinedProgramNS = 9e6
	if errs := AssertFSCS(base, fresh); len(errs) != 0 {
		t.Fatalf("clean reports should pass, got %v", errs)
	}
}

func TestAssertFSCSWithinTolerance(t *testing.T) {
	base := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	// 4% more allocations (and bytes): inside the 5% allowance.
	fresh := perfReport(perfPoint("sock", 5000, 20800, 1.0))
	if errs := AssertFSCS(base, fresh); len(errs) != 0 {
		t.Fatalf("4%% more allocations should pass, got %v", errs)
	}
}

func TestAssertFSCSSeededRegression(t *testing.T) {
	base := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	// One more worklist tuple: work counters get no allowance.
	fresh := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	fresh.Points[0].FSCSTuples++
	errs := AssertFSCS(base, fresh)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "fscs_tuples") {
		t.Fatalf("one extra tuple should fail with one error, got %v", errs)
	}
	// 6% more allocations: past the 5% allowance, on both columns.
	fresh = perfReport(perfPoint("sock", 5000, 21200, 1.0))
	errs = AssertFSCS(base, fresh)
	if len(errs) != 2 || !strings.Contains(errs[0].Error(), "allocs") || !strings.Contains(errs[1].Error(), "alloc_bytes") {
		t.Fatalf("6%% more allocations should fail on allocs and alloc_bytes, got %v", errs)
	}
}

func TestAssertFSCSColdCache(t *testing.T) {
	base := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	fresh := perfReport(perfPoint("sock", 5000, 20000, 0.0))
	errs := AssertFSCS(base, fresh)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "cache_hit_rate") {
		t.Fatalf("cold-cache fresh report should fail, got %v", errs)
	}
}

func TestAssertFSCSMissingBench(t *testing.T) {
	base := perfReport(perfPoint("sock", 5000, 20000, 1.0), perfPoint("autofs", 9000, 40000, 1.0))
	fresh := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	errs := AssertFSCS(base, fresh)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "missing") {
		t.Fatalf("dropped workload should fail, got %v", errs)
	}
}

func TestAssertFSCSZeroBaselineColumn(t *testing.T) {
	// A baseline row without counts (the Workers=8 rows never record
	// them) asserts nothing about them; a fresh row that stops recording
	// a measured count fails.
	base := perfReport(perfPoint("sock", 0, 0, 1.0))
	fresh := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	if errs := AssertFSCS(base, fresh); len(errs) != 0 {
		t.Fatalf("zero baseline columns should be skipped, got %v", errs)
	}
	errs := AssertFSCS(fresh, base)
	if len(errs) != 6 || !strings.Contains(errs[0].Error(), "not measured") {
		t.Fatalf("unmeasured fresh counts should fail once per column, got %v", errs)
	}
}

func TestAssertFSCSGoVersionMismatch(t *testing.T) {
	base := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	fresh := perfReport(perfPoint("sock", 5000, 30000, 1.0))
	fresh.GoVersion = "1.23"
	// The allocation columns are not compared across releases; the
	// mismatch itself is the one error.
	errs := AssertFSCS(base, fresh)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "make bench-baseline") {
		t.Fatalf("Go version mismatch should fail with a re-record hint, got %v", errs)
	}
}

func TestReadFSCSJSONRoundTrip(t *testing.T) {
	rep := perfReport(perfPoint("sock", 5000, 20000, 1.0))
	var buf bytes.Buffer
	if err := WriteFSCSJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFSCSJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 1 || got.Points[0] != rep.Points[0] || got.Scale != rep.Scale || got.GoVersion != rep.GoVersion {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadFSCSJSONRejectsEmpty(t *testing.T) {
	if _, err := ReadFSCSJSON(strings.NewReader(`{"points":[]}`)); err == nil {
		t.Error("empty report should error")
	}
	if _, err := ReadFSCSJSON(strings.NewReader("not json")); err == nil {
		t.Error("malformed report should error")
	}
	if _, err := ReadFSCSJSONFile("nonexistent.json"); err == nil {
		t.Error("missing file should error")
	}
}
