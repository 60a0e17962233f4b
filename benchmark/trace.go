package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"
)

// The traced run records one span per call the benchmark makes into a
// layer package: name ("layer.call"), start, end, the enclosing span, the
// cluster or operation the call worked for, and the bytes allocated
// during it. Spans stay in memory and are written out when the run ends.
// The replays are single-threaded (Workers = 1), so spans nest strictly
// and a span's self time is its duration minus its children's.

// unattributedBound is the benchmark's bound on the share of the traced
// wall clock that no layer span covers (the benchmark's own glue):
// layer self times must add up to the traced wall clock within it.
const unattributedBound = 0.10

type span struct {
	name       string
	id         int // cluster or operation id; -1 for neither
	parent     int // index of the enclosing span; -1 for the root
	start, end time.Duration
	alloc      uint64 // bytes allocated between start and end
}

// tracer records spans; a disabled tracer runs the same calls and records
// nothing, which is how the tracing overhead is measured.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	stack  []int
	allocs []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string, id int) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, alloc: t.allocated(), start: time.Since(t.t0)})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int) {
	if !t.on {
		return
	}
	s := &t.spans[i]
	s.end = time.Since(t.t0)
	s.alloc = t.allocated() - s.alloc
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, id int, f func()) {
	i := t.begin(name, id)
	f()
	t.end(i)
}

// stat is the self time and self allocation of every span of one name.
type stat struct {
	self  time.Duration
	alloc uint64
}

// byName aggregates self time and self allocation per span name.
func (t *tracer) byName() map[string]*stat {
	childDur := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childAlloc[s.parent] += s.alloc
		}
	}
	out := map[string]*stat{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &stat{}
			out[s.name] = st
		}
		st.self += s.end - s.start - childDur[i]
		st.alloc += s.alloc - min(childAlloc[i], s.alloc)
	}
	return out
}

// durations lists, per span of the given name, its duration.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// perID sums, per id, the durations of the spans with the given names.
func (t *tracer) perID(names ...string) map[int]time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if want[s.name] && s.id >= 0 {
			out[s.id] += s.end - s.start
		}
	}
	return out
}

// setTraceMetrics sets the trace.* metrics from a traced replay whose
// root span is the first one, and checks that layer self times add up to
// the traced wall clock within unattributedBound.
func setTraceMetrics(out *outcome, tr *tracer, untraced time.Duration) {
	root := tr.spans[0]
	wall := root.end - root.start
	rootSelf := tr.byName()[root.name].self
	frac := float64(rootSelf) / float64(wall)
	out.set("trace.wall_ms", ms(wall))
	out.set("trace.overhead_ms", ms(wall-untraced))
	out.set("trace.unattributed_frac", frac)
	out.set("trace.spans", float64(len(tr.spans)))
	if frac > unattributedBound {
		out.checkFail("layer self times cover %.1f%% of the traced wall clock, want at least %.0f%%",
			100*(1-frac), 100*(1-unattributedBound))
	}
}

// setLayerTime sets a layer's "_ms" metric (and, when allocName is not
// empty, its allocation metric) from the summed self time of the named
// spans.
func setLayerTime(out *outcome, stats map[string]*stat, msName, allocName string, spans ...string) {
	var self time.Duration
	var alloc uint64
	for _, n := range spans {
		if st := stats[n]; st != nil {
			self += st.self
			alloc += st.alloc
		}
	}
	out.set(msName, ms(self))
	if allocName != "" {
		out.set(allocName, float64(alloc)/mib)
	}
}

// traceEvent is one Chrome trace-event-format record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans to path in the Chrome trace event format
// (chrome://tracing, Perfetto).
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		cat := s.name
		if j := strings.IndexByte(s.name, '.'); j >= 0 {
			cat = s.name[:j]
		}
		events[i] = traceEvent{
			Name: s.name, Cat: cat, Ph: "X", PID: 1, TID: 1,
			TS: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"id": s.id, "parent": s.parent, "span": i, "alloc_bytes": s.alloc},
		}
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return w.Flush()
}
