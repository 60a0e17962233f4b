// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It builds one seeded workload, runs it for a fixed wall-clock
// budget, checks every answer it timed, and prints one JSON result line:
//
//	go run . --workload cold_batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the workload is replayed layer by layer
// through the public calls of each package, one span per call, and the
// result carries the per-layer metrics instead. See README.md for the
// workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale overrides the workload's program scale (0 keeps it); the
	// self-test uses it to run every workload on a tiny program.
	scale float64
	// corrupt makes the driver falsify one answer before checking it, so
	// the self-test can prove a wrong answer is caught and counted.
	corrupt bool
	// traceOut is where a traced run writes its spans.
	traceOut string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its result. It returns
// the process exit code: 0 when every correctness check passed, 1 when a
// check failed (the result is still printed), 2 on a usage or setup
// error (no result is printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload's queries, edits and check samples")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock budget of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 replays the workload layer by layer and prints per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "file for a traced run's spans (default .bench_build/trace/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	return execute(o, stdout, stderr)
}

// execute runs the workload o names and prints its result; it returns
// run's exit code.
func execute(o options, stdout, stderr io.Writer) int {
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive")
		return 2
	}
	if o.scale > 0 {
		w.scale = o.scale
	}

	fmt.Fprintf(stdout, "env: go=%s GOMAXPROCS=%d nproc=%d workers=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), workers())
	out, err := w.run(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 2
	}
	res := result{
		Correct:   len(out.checkFailures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	for _, msg := range out.checkFailures {
		fmt.Fprintf(stderr, "benchmark: check failed: %s\n", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encode result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names) // a []string always encodes
	return string(b)
}
