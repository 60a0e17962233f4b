package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// AllocTolerance is the bench gate's allowance on allocation counts: a
// fresh report's allocs or alloc_bytes may exceed the committed
// baseline's by at most this fraction. Repeated runs of one build on
// one Go release spread well under 1%, so 5% leaves headroom for
// runtime scheduling while still catching a lost optimization (turning
// off the condition memo tables adds over 50% on mt_daapd).
const AllocTolerance = 0.05

// ReadFSCSJSON parses a BENCH_fscs.json report from r.
func ReadFSCSJSON(r io.Reader) (FSCSPerfReport, error) {
	var rep FSCSPerfReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, err
	}
	if len(rep.Points) == 0 {
		return rep, fmt.Errorf("report has no points")
	}
	return rep, nil
}

// ReadFSCSJSONFile parses the report stored at path.
func ReadFSCSJSONFile(path string) (FSCSPerfReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return FSCSPerfReport{}, err
	}
	defer f.Close()
	rep, err := ReadFSCSJSON(f)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// AssertFSCS is the CI bench-regression gate: it compares a freshly
// measured report against the committed baseline and returns one error
// per violated invariant (nil when everything holds). Checked per
// baseline (workload, workers) row:
//
//   - the row still exists in the fresh report;
//   - no work counter (fscs_tuples, fscs_summaries, andersen_passes,
//     andersen_delta_edges_fired) exceeds the baseline's: the cascade is
//     deterministic, so any growth is a real change in the work done;
//   - allocs and alloc_bytes are at most AllocTolerance above the
//     baseline's, provided both reports come from the same Go release
//     (a mismatch is itself an error: re-record the baseline);
//   - cache_hit_rate is exactly 1.0 — the fresh report must come from a
//     warm rerun, where anything short of a full hit means the cache's
//     fingerprinting or import path broke;
//   - the partition histograms stay coherent.
//
// Wall-clock columns are deliberately not compared: they measure the
// runner, not the code.
func AssertFSCS(baseline, fresh FSCSPerfReport) []error {
	var errs []error
	sameGo := baseline.GoVersion == fresh.GoVersion
	if !sameGo {
		errs = append(errs, fmt.Errorf("fresh report measured under Go %q, baseline under Go %q: allocation counts differ between Go releases; re-record with `make bench-baseline`",
			fresh.GoVersion, baseline.GoVersion))
	}
	key := func(p FSCSPerfPoint) string { return fmt.Sprintf("%s/w%d", p.Bench, p.Workers) }
	freshBy := make(map[string]FSCSPerfPoint, len(fresh.Points))
	for _, p := range fresh.Points {
		freshBy[key(p)] = p
	}
	for _, base := range baseline.Points {
		name := key(base)
		p, ok := freshBy[name]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: missing from the fresh report", name))
			continue
		}
		for _, c := range []struct {
			col       string
			base, got int64
			tolerance float64
		}{
			{"fscs_tuples", base.FSCSTuples, p.FSCSTuples, 0},
			{"fscs_summaries", base.FSCSSummaries, p.FSCSSummaries, 0},
			{"andersen_passes", base.AndersenPasses, p.AndersenPasses, 0},
			{"andersen_delta_edges_fired", base.AndersenDeltaEdgesFired, p.AndersenDeltaEdgesFired, 0},
			{"allocs", base.Allocs, p.Allocs, AllocTolerance},
			{"alloc_bytes", base.AllocBytes, p.AllocBytes, AllocTolerance},
		} {
			switch {
			case c.base <= 0:
				// The baseline row never measured this column.
			case c.tolerance > 0 && !sameGo:
				// Another Go release's allocations are not comparable;
				// the version mismatch is already reported.
			case c.got <= 0:
				errs = append(errs, fmt.Errorf("%s: %s not measured (baseline %d)", name, c.col, c.base))
			case c.tolerance == 0 && c.got > c.base:
				errs = append(errs, fmt.Errorf("%s: %s = %d, above the baseline %d (work counters are deterministic and may not grow)",
					name, c.col, c.got, c.base))
			case float64(c.got) > float64(c.base)*(1+c.tolerance):
				errs = append(errs, fmt.Errorf("%s: %s = %d, %.1f%% above the baseline %d (allowed %.0f%%)",
					name, c.col, c.got, 100*(float64(c.got)/float64(c.base)-1), c.base, 100*c.tolerance))
			}
		}
		if p.CacheHitRate != 1.0 {
			errs = append(errs, fmt.Errorf("%s: cache_hit_rate = %.2f, want 1.0 (warm rerun must import every cluster)",
				name, p.CacheHitRate))
		}
		// Shape gate: once a baseline records the size histograms, fresh
		// reports must keep recording them coherently, and the precise
		// partitioner must not regress past the default's max partition.
		if base.PartitionMax > 0 {
			switch {
			case p.PartitionMax <= 0 || p.PartitionP50 > p.PartitionP90 || p.PartitionP90 > p.PartitionMax:
				errs = append(errs, fmt.Errorf("%s: incoherent partition histogram p50=%d p90=%d max=%d",
					name, p.PartitionP50, p.PartitionP90, p.PartitionMax))
			case p.PrecisePartitionMax <= 0 || p.PrecisePartitionMax > p.PartitionMax:
				errs = append(errs, fmt.Errorf("%s: precise_partition_max = %d, want in (0, %d] (oversharing fix regressed)",
					name, p.PrecisePartitionMax, p.PartitionMax))
			}
		}
	}
	return errs
}
