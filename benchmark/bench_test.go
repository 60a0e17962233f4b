package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScale shrinks every workload's program so the self-test runs in
// seconds.
const tinyScale = 0.03

// declared is the part of BENCHMARK.json the self-test checks.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// runTiny runs one workload on its tiny program and returns the exit
// code and the decoded last line of standard output.
func runTiny(t *testing.T, o options) (int, result) {
	t.Helper()
	o.seed, o.seconds, o.scale = 1, 0.2, tinyScale
	o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := execute(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%v: last line is not a result (%v)\nstdout:\n%s\nstderr:\n%s",
			o.workload, o.trace, err, stdout.String(), stderr.String())
	}
	if o.trace {
		if _, err := os.Stat(o.traceOut); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", o.workload, err)
		}
	}
	return code, res
}

// TestEveryDeclaredMetricIsPrinted runs every workload of BENCHMARK.json
// untraced and traced, and checks that each prints exactly the declared
// metrics with their declared units, and passes its checks.
func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			code, res := runTiny(t, options{workload: w.Name, trace: trace})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, correct=%v, failed %d of %d",
					w.Name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, declared %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s printed in %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestWrongAnswerIsCounted feeds each workload's check path one
// deliberately wrong answer: the run must report it as incorrect, count
// it in failed_frac, and exit non-zero.
func TestWrongAnswerIsCounted(t *testing.T) {
	for name := range workloads {
		code, res := runTiny(t, options{workload: name, trace: true, corrupt: true})
		if code != 1 || res.Correct || res.Failed < 1 {
			t.Errorf("%s: exit %d, correct=%v, failed %d: the wrong answer went unnoticed",
				name, code, res.Correct, res.Failed)
		}
		if f := res.Metrics["failed_frac"].Value; f <= 0 {
			t.Errorf("%s: failed_frac = %v, want > 0", name, f)
		}
	}
}
