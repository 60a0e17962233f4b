// Command benchtab regenerates the paper's Table 1 over the synthetic
// workload suite: flow- and context-sensitive alias analysis without
// clustering, with Steensgaard clustering, and with bootstrapped Andersen
// clustering, including the greedy 5-machine parallel simulation.
//
// Usage:
//
//	benchtab [-scale 0.2] [-rows sock,autofs,sendmail] [-compare] [-sweep autofs]
//	benchtab -assert -baseline BENCH_fscs.json -fresh BENCH_fresh.json
//
// -assert is the CI bench-regression gate: it compares a freshly measured
// FSCS perf report against the committed baseline and exits non-zero when
// a deterministic work counter grew, an allocation count grew by more
// than 5%, the reports come from different Go releases, or a warm rerun
// failed to serve fully from the result cache.
//
// Absolute times differ from the paper's 2008 hardware; the shape — who
// wins, by what rough factor, and where Andersen clustering stops paying
// off — is the reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bootstrap/internal/bench"
	"bootstrap/internal/cliutil"
	"bootstrap/internal/synth"
)

var (
	scale   = flag.Float64("scale", 0.2, "workload scale (1.0 = paper-sized)")
	parts   = flag.Int("parts", 5, "simulated machines for the parallel columns")
	budget  = flag.Int64("budget", 3_000_000, "work budget for the unclustered baseline (the 15-min analogue)")
	rows    = flag.String("rows", "", "comma-separated benchmark names (default: all 20)")
	skipNC  = flag.Bool("skip-monolithic", false, "skip the unclustered baseline column")
	compare = flag.Bool("compare", false, "also print the paper-vs-measured comparison")
	sweep   = flag.String("sweep", "", "run the Andersen-threshold ablation on this benchmark instead")

	clusterTimeout = flag.Duration("cluster-timeout", 0, "per-cluster wall-clock deadline per engine attempt (0 = none)")
	retries        = flag.Int("retries", 0, "degradation-ladder retries per failed cluster (0 = single attempt, the historical bench behavior)")

	fscsJSON = flag.String("fscs-json", "", "write the FSCS perf report (work and allocation counts of a cold Workers=1 run; cluster, program and warm-cache wall clock) to this file and exit")
	perfReps = flag.Int("perf-reps", 3, "best-of-N repetitions for the -fscs-json wall-clock columns")
	timings  = flag.Bool("timings", false, "also print per-stage timing columns (fixed cover order, diff-friendly)")
	cacheDir = flag.String("cache-dir", "", "persistent directory for the per-cluster result cache; a second run against the same directory starts fully warm (cache_hit_rate 1.0)")

	assert   = flag.Bool("assert", false, "bench-regression gate: compare -fresh against -baseline and exit non-zero when a work counter grew, allocations grew by >5%, the Go releases differ or the warm run missed the cache")
	baseline = flag.String("baseline", "BENCH_fscs.json", "committed baseline report for -assert")
	fresh    = flag.String("fresh", "BENCH_fresh.json", "freshly measured report for -assert")

	checkBench = flag.Bool("check", false, "run the checker benchmark instead: every lockheavy preset cold then warm, seeded-bug recall, cold/warm digest drift; with -assert, gate against -baseline BENCH_check.json")
	checkJSON  = flag.String("check-json", "", "with -check, write the checker report to this file")

	incrBench = flag.Bool("incremental", false, "run the incremental-edit benchmark instead: a deterministic storm of single-statement edits per workload through core.ApplyEdit, measuring edit-to-answer latency, dirty-cluster fraction and differential identity; with -assert, gate latency/reuse/identity invariants and workload-set equality against -baseline BENCH_incremental.json")
	incrJSON  = flag.String("incr-json", "", "with -incremental, write the incremental report to this file")
	incrEdits = flag.String("edits", incrBenchRows, "with -incremental, comma-separated workloads for the edit storm")

	obsFlags cliutil.ObsFlags
)

// incrBenchRows is the default suite of the -incremental edit storm:
// the four largest BENCH_ROWS workloads, where the cover is wide enough
// that single-statement edits leave most clusters untouched.
const incrBenchRows = "sock,autofs,raid,mt_daapd"

func init() {
	obsFlags.Register(flag.CommandLine)
}

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) (err error) {
	if *checkBench {
		return runCheck(out)
	}
	if *incrBench {
		return runIncr(out)
	}
	if *assert {
		return runAssert(out, *baseline, *fresh)
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	opt := bench.Options{
		Scale:            *scale,
		Parts:            *parts,
		Budget:           *budget,
		SkipNoClustering: *skipNC,
		ClusterTimeout:   *clusterTimeout,
		Retries:          *retries,
		CacheDir:         *cacheDir,
		Tracer:           sess.Tracer,
		Metrics:          sess.Metrics,
	}
	if *sweep != "" {
		b, ok := synth.FindBenchmark(*sweep)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", *sweep)
		}
		points, err := bench.ThresholdSweep(b, []int{4, 8, 16, 32, 60, 120, 1 << 30}, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Andersen-threshold ablation on %s (scale %.2f):\n", b.Name, *scale)
		fmt.Fprint(out, bench.FormatSweep(points))
		return nil
	}

	suite := synth.Table1
	if *rows != "" {
		suite = nil
		for _, name := range strings.Split(*rows, ",") {
			b, ok := synth.FindBenchmark(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown benchmark %q", name)
			}
			suite = append(suite, b)
		}
	}
	if *fscsJSON != "" {
		report, err := bench.FSCSPerf(suite, opt, *perfReps, os.Stderr)
		if err != nil {
			return err
		}
		f, err := os.Create(*fscsJSON)
		if err != nil {
			return err
		}
		if err := bench.WriteFSCSJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d workloads)\n", *fscsJSON, len(report.Points))
		return nil
	}
	measured, err := bench.RunTable(suite, opt, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nTable 1 (scale %.2f, %d simulated machines):\n\n", *scale, *parts)
	fmt.Fprint(out, bench.FormatTable(measured))
	if *timings {
		fmt.Fprintln(out, "\nPer-stage timings (fixed cover order):")
		fmt.Fprint(out, bench.FormatTimings(measured))
	}
	if *compare {
		fmt.Fprintln(out, "\nPaper vs measured (shape comparison):")
		fmt.Fprint(out, bench.FormatComparison(measured))
	}
	return nil
}

// runCheck is the checker benchmark: every lockheavy preset runs every
// registered pass cold then warm against the same cache directory,
// scoring recall against the generator's seeded ground truth. Under
// -assert it gates the fresh report's own invariants (recall 1.0, zero
// cold/warm drift, fully-cached warm rerun) plus per-rule findings
// counts against the committed baseline.
func runCheck(out io.Writer) error {
	report, err := bench.CheckPerf(synth.LockHeavyWorkloads(), os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Checker benchmark (lockheavy suite, all passes, cold vs warm cache):")
	fmt.Fprintln(out)
	fmt.Fprint(out, bench.FormatCheck(report))
	if *checkJSON != "" {
		f, err := os.Create(*checkJSON)
		if err != nil {
			return err
		}
		if err := bench.WriteCheckJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s (%d workloads)\n", *checkJSON, len(report.Points))
	}
	if *assert {
		base, err := bench.ReadCheckJSONFile(*baseline)
		if err != nil {
			return err
		}
		errs := bench.AssertCheck(base, report)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "benchtab: check gate:", e)
		}
		if len(errs) > 0 {
			return fmt.Errorf("%d checker invariant(s) violated (baseline %s)", len(errs), *baseline)
		}
		fmt.Fprintf(out, "\ncheck gate: %d workloads at full recall, zero drift, warm reruns fully cached\n",
			len(report.Points))
	}
	return nil
}

// runIncr is the incremental-edit benchmark: per workload, a full
// analysis followed by a deterministic storm of single-statement edits
// through core.ApplyEdit, each timed edit-to-answer, with periodic
// differential checks against a from-scratch analysis. Under -assert it
// gates the fresh report's latency budget, dirty-cluster reuse floor,
// zero-fallback and identity-check invariants, plus workload-set
// equality against the committed baseline.
func runIncr(out io.Writer) error {
	var names []string
	for _, name := range strings.Split(*incrEdits, ",") {
		names = append(names, strings.TrimSpace(name))
	}
	report, err := bench.IncrPerf(names, *scale, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Incremental edit storm (ApplyEdit, edit-to-answer latency):")
	fmt.Fprintln(out)
	fmt.Fprint(out, bench.FormatIncr(report))
	if *incrJSON != "" {
		f, err := os.Create(*incrJSON)
		if err != nil {
			return err
		}
		if err := bench.WriteIncrJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s (%d workloads)\n", *incrJSON, len(report.Points))
	}
	if *assert {
		var base *bench.IncrReport
		if *baseline != "" {
			base, err = bench.ReadIncrJSONFile(*baseline)
			if err != nil {
				return err
			}
		}
		errs := bench.AssertIncr(base, report)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "benchtab: incremental gate:", e)
		}
		if len(errs) > 0 {
			return fmt.Errorf("%d incremental invariant(s) violated", len(errs))
		}
		fmt.Fprintf(out, "\nincremental gate: %d workloads under the %dms p50 CI budget, dirty fraction under %.0f%%, zero fallbacks, identity held\n",
			len(report.Points), bench.IncrP50BudgetUS/1000, bench.IncrDirtyFracLimit*100)
	}
	return nil
}

// runAssert is the bench-regression gate: one error line per violated
// invariant, an error (non-zero exit) when any fired.
func runAssert(out io.Writer, basePath, freshPath string) error {
	base, err := bench.ReadFSCSJSONFile(basePath)
	if err != nil {
		return err
	}
	fr, err := bench.ReadFSCSJSONFile(freshPath)
	if err != nil {
		return err
	}
	errs := bench.AssertFSCS(base, fr)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "benchtab: regression:", e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d bench invariant(s) violated (baseline %s, fresh %s)", len(errs), basePath, freshPath)
	}
	fmt.Fprintf(out, "bench gate: %d rows at or below the work counts of %s, allocations within %.0f%%, all warm runs fully cached\n",
		len(base.Points), basePath, bench.AllocTolerance*100)
	return nil
}
