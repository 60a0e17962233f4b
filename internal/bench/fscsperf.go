package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// FSCSPerfPoint is one workload's measurement of the FSCS hot path at
// one parallelism. The work and allocation counts are deterministic
// for a given program and Go release, so they are what the bench gate
// holds; the wall-clock columns are reported for the trajectory only.
type FSCSPerfPoint struct {
	Bench    string `json:"bench"`
	Pointers int    `json:"pointers"`
	Clusters int    `json:"clusters"`
	// Workers is this row's parallelism: each workload is measured at
	// Workers=1 (the serial trajectory) and Workers=8 (where the
	// parallel wave-front solve and the pipelined cascade earn their
	// keep).
	Workers int `json:"workers,omitempty"`

	// Partition- and cluster-size shape of the workload (Workers=1 row
	// only; the shape is workers-independent). PrecisePartitionMax is
	// MaxPartitionSize under the oversharing-resistant -steens-precise
	// partitioner.
	PartitionP50        int `json:"partition_p50,omitempty"`
	PartitionP90        int `json:"partition_p90,omitempty"`
	PartitionMax        int `json:"partition_max,omitempty"`
	PrecisePartitionMax int `json:"precise_partition_max,omitempty"`
	ClusterP50          int `json:"cluster_p50,omitempty"`
	ClusterP90          int `json:"cluster_p90,omitempty"`
	ClusterMax          int `json:"cluster_max,omitempty"`

	// Work and allocation counts of one cold, cache-free, Workers=1
	// whole-program analysis (Workers=1 row only): the runtime's
	// Mallocs/TotalAlloc deltas and the cascade's own work counters.
	Allocs                  int64 `json:"allocs,omitempty"`
	AllocBytes              int64 `json:"alloc_bytes,omitempty"`
	FSCSTuples              int64 `json:"fscs_tuples,omitempty"`
	FSCSSummaries           int64 `json:"fscs_summaries,omitempty"`
	AndersenPasses          int64 `json:"andersen_passes,omitempty"`
	AndersenDeltaEdgesFired int64 `json:"andersen_delta_edges_fired,omitempty"`

	// Best-of-reps wall clock: every cover cluster's engine run serially
	// (Workers=1 row only), and the cold whole-program analysis.
	InternedClusterNS  int64 `json:"interned_cluster_ns"`
	PipelinedProgramNS int64 `json:"pipelined_program_ns"`

	// The warm columns measure the content-addressed result cache: the
	// whole-program analysis re-run against a fully warm cache, its
	// speedup over the cache-free pipelined run, and the hit rate of the
	// FIRST cache-enabled run in this process — 0.0 against an empty
	// cache directory, 1.0 when a previous benchtab run already
	// populated it (what CI asserts on its second run).
	WarmProgramNS int64   `json:"warm_program_ns"`
	WarmSpeedup   float64 `json:"warm_speedup"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
}

// FSCSPerfReport is the BENCH_fscs.json payload: one point per workload
// in fixed cover order, plus the knobs the numbers were taken under so
// future PRs can tell whether a trajectory change is real or a config
// drift. GoVersion is the toolchain's major.minor release: allocation
// counts are only comparable between reports of the same release.
type FSCSPerfReport struct {
	Date      string          `json:"date"`
	GoVersion string          `json:"go_version"`
	Scale     float64         `json:"scale"`
	Threshold int             `json:"threshold"`
	Workers   int             `json:"workers"`
	Reps      int             `json:"reps"`
	Points    []FSCSPerfPoint `json:"points"`
}

// timeCover times one full sweep of engine runs over the cover and
// returns the best (minimum) wall clock over reps sweeps — the standard
// best-of-N discipline that filters scheduler noise from a trajectory
// that later PRs will diff against.
func timeCover(reps int, sweep func()) time.Duration {
	best := time.Duration(-1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sweep()
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// goMinor is the running toolchain's major.minor release, "1.24" for
// go1.24.0.
func goMinor() string {
	v := strings.TrimPrefix(runtime.Version(), "go")
	if i := strings.IndexByte(v, '.'); i >= 0 {
		if j := strings.IndexByte(v[i+1:], '.'); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}

// countWork fills p's work and allocation counts from one cold run of
// cfg (which must carry no cache) with a private metrics registry.
func countWork(prog *ir.Program, cfg core.Config, p *FSCSPerfPoint) error {
	m := obs.NewMetrics()
	cfg.Metrics = m
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := core.AnalyzeProgramContext(context.Background(), prog, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	p.Allocs = int64(after.Mallocs - before.Mallocs)
	p.AllocBytes = int64(after.TotalAlloc - before.TotalAlloc)
	count := func(name string) int64 { return m.Counter(name, "").Value() }
	p.FSCSTuples = count("bootstrap_fscs_tuples_total")
	p.FSCSSummaries = count("bootstrap_fscs_summaries_total")
	p.AndersenPasses = count("bootstrap_andersen_passes_total")
	p.AndersenDeltaEdgesFired = count("bootstrap_andersen_delta_edges_fired_total")
	return nil
}

// fscsWorkersAxis is the parallelism dimension of the report: the serial
// trajectory, and the width where the parallel wave-front solve and the
// pipelined cascade earn their keep.
var fscsWorkersAxis = [2]int{1, 8}

// SizeHist summarizes a size distribution with the three quantiles the
// report records. Percentiles use the nearest-rank method on the sorted
// sizes; an empty input yields zeros.
func SizeHist(sizes []int) (p50, p90, max int) {
	if len(sizes) == 0 {
		return 0, 0, 0
	}
	s := append([]int(nil), sizes...)
	sort.Ints(s)
	rank := func(q float64) int {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return rank(0.50), rank(0.90), s[len(s)-1]
}

// FSCSPerf measures every workload in the given order (callers pass a
// fixed cover order so successive BENCH_fscs.json files diff cleanly),
// at each parallelism of fscsWorkersAxis. reps < 1 defaults to 3.
//
// The whole-program runs use the default configuration — delta
// propagation and the parallel wave-front solve above its default
// threshold. The oversharing-resistant precise partitioner is measured
// separately (the precise_partition_max column): its overlapping cover
// shrinks the worst partition but enlarges the cluster cover, so it is
// a precision knob, not part of the timed fast path.
func FSCSPerf(benches []synth.Benchmark, opt Options, reps int, w io.Writer) (FSCSPerfReport, error) {
	opt.fill()
	if reps < 1 {
		reps = 3
	}
	report := FSCSPerfReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: goMinor(),
		Scale:     opt.Scale,
		Threshold: opt.threshold(),
		Workers:   runtime.GOMAXPROCS(0),
		Reps:      reps,
	}
	for _, b := range benches {
		prog, err := frontend.LowerSource(synth.Generate(b, opt.Scale))
		if err != nil {
			return report, fmt.Errorf("fscsperf %s: %w", b.Name, err)
		}
		sa := steens.Analyze(prog)
		cg := callgraph.Build(prog)
		cover := cluster.BuildAndersen(prog, sa, opt.threshold())

		// Workers-independent columns, measured once and reported in the
		// Workers=1 row: the serial engine sweep over the cover and the
		// partition/cluster shape histograms.
		internedNS := int64(timeCover(reps, func() {
			for _, c := range cover {
				eng := fscs.NewEngine(prog, cg, sa, c)
				_ = eng.Run()
			}
		}))
		var partSizes, clusterSizes []int
		for _, part := range sa.Partitions() {
			partSizes = append(partSizes, len(part))
		}
		for _, c := range cover {
			clusterSizes = append(clusterSizes, len(c.Pointers))
		}
		preciseMax := steens.Analyze(prog, steens.Precise()).MaxPartitionSize()

		for wi, workers := range fscsWorkersAxis {
			p := FSCSPerfPoint{
				Bench:    b.Name,
				Pointers: prog.NumVars(),
				Clusters: len(cover),
				Workers:  workers,
			}
			cfg := core.Config{
				Mode:              core.ModeAndersen,
				Workers:           workers,
				AndersenThreshold: opt.threshold(),
			}
			p.PipelinedProgramNS = int64(timeCover(reps, func() {
				if _, err := core.AnalyzeProgramContext(context.Background(), prog, cfg); err != nil {
					panic(err) // synthetic workloads never fail to analyze
				}
			}))
			if wi == 0 {
				p.InternedClusterNS = internedNS
				p.PartitionP50, p.PartitionP90, p.PartitionMax = SizeHist(partSizes)
				p.ClusterP50, p.ClusterP90, p.ClusterMax = SizeHist(clusterSizes)
				p.PrecisePartitionMax = preciseMax
				// After the timed runs, so one-time process setup is not
				// counted.
				if err := countWork(prog, cfg, &p); err != nil {
					return report, fmt.Errorf("fscsperf %s: %w", b.Name, err)
				}
			}

			// Warm rerun against the result cache, one cache subtree per
			// workers column so each row's first cache-enabled run sees the
			// dir state a CI rerun of that row would. The first run reports
			// the hit rate (cold dir: 0.0; pre-populated dir: 1.0) and fills
			// the in-memory tier; the timed reruns then serve entirely from
			// it.
			cdir := opt.CacheDir
			if cdir != "" {
				cdir = filepath.Join(cdir, fmt.Sprintf("w%d", workers))
			}
			cc := cache.New(cache.Options{Dir: cdir})
			ccfg := cfg
			ccfg.Cache = cc
			a, err := core.AnalyzeProgramContext(context.Background(), prog, ccfg)
			if err != nil {
				return report, fmt.Errorf("fscsperf %s: %w", b.Name, err)
			}
			p.CacheHitRate = a.CacheStats.HitRate()
			p.WarmProgramNS = int64(timeCover(reps, func() {
				if _, err := core.AnalyzeProgramContext(context.Background(), prog, ccfg); err != nil {
					panic(err) // synthetic workloads never fail to analyze
				}
			}))
			p.WarmSpeedup = ratio(p.PipelinedProgramNS, p.WarmProgramNS)

			if w != nil {
				fmt.Fprintf(w, "%-16s w%-2d program %.1fms  warm %.1fms (%.2fx, hit rate %.2f)",
					b.Name, workers, ms(p.PipelinedProgramNS), ms(p.WarmProgramNS), p.WarmSpeedup, p.CacheHitRate)
				if wi == 0 {
					fmt.Fprintf(w, "  cluster %.1fms  allocs %d  tuples %d", ms(p.InternedClusterNS), p.Allocs, p.FSCSTuples)
				}
				fmt.Fprintln(w)
			}
			report.Points = append(report.Points, p)
		}
	}
	return report, nil
}

func ratio(base, opt int64) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(base) / float64(opt)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// WriteFSCSJSON emits the report as indented JSON — the BENCH_fscs.json
// artifact the CI bench job uploads.
func WriteFSCSJSON(w io.Writer, r FSCSPerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
