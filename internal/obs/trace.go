// Package obs is the zero-dependency observability layer of the
// bootstrapped analysis: phase/cluster tracing in the Chrome trace event
// format (chrome://tracing, Perfetto) and a lock-cheap metrics registry
// exported via expvar and a Prometheus-style text endpoint.
//
// Everything is nil-safe: a nil *Tracer or *Metrics (and the nil *Span,
// *Counter, *Gauge, *Histogram values they hand out) turns every method
// into a cheap nil-check no-op, so instrumented code runs at full speed
// when observability is disabled — no build tags, no indirection.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one Chrome trace event. Span events use ph "X" (complete
// events: a start timestamp plus a duration); thread-name metadata uses
// ph "M". Timestamps and durations are microseconds, as the format
// requires.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace is the Chrome trace "JSON object format" envelope — what
// chrome://tracing and Perfetto load directly.
type Trace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
}

// tracePID is the constant pid of every event: one process per trace.
const tracePID = 1

// Track (tid) layout shared by every instrumented package, so one run's
// spans land on stable, named Perfetto tracks:
//
//	0        the main goroutine's phase spans
//	1        the concurrent fallback build (Andersen plus call graph)
//	100 + w  FSCS scheduler worker w (cluster, attempt and cache spans)
//	200 + w  clustering-stream worker w (partition refinement spans)
//	300 + i  alias-daemon query lane i (per-query spans, hashed over lanes)
//	400 + s  distributed shard s (the coordinator's claim/steal/lease
//	         spans for the workers serving that shard)
//	500 + i  checker pass lane i (one per concurrently running
//	         static-analysis pass)
const (
	TIDMain     = 0
	TIDFallback = 1

	tidWorkerBase    = 100
	tidClustererBase = 200
	tidQueryBase     = 300
	tidShardBase     = 400
	tidCheckBase     = 500
)

// WorkerTID returns the track of FSCS scheduler worker w.
func WorkerTID(w int) int { return tidWorkerBase + w }

// ClustererTID returns the track of clustering-stream worker w.
func ClustererTID(w int) int { return tidClustererBase + w }

// ShardTID returns the coordinator-side track of distributed shard s.
func ShardTID(s int) int { return tidShardBase + s }

// QueryTID returns the track of alias-daemon query lane i. Lanes keep
// concurrent per-query spans on a bounded set of named tracks instead of
// one goroutine-per-track explosion.
func QueryTID(i int) int { return tidQueryBase + i }

// CheckTID returns the track of checker pass lane i: each concurrently
// running static-analysis pass gets its own named track.
func CheckTID(i int) int { return tidCheckBase + i }

// Tracer collects spans from many goroutines. Export order is canonical:
// events sort by (tid, per-tid arrival), so any single-threaded track —
// and therefore a whole Workers=1 run — produces a byte-identical stream
// up to timestamps, run after run.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event
	seqs   []int // per-tid arrival index, parallel to events
	tidSeq map[int]int
	names  map[int]string // tid -> thread name
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{
		epoch:  time.Now(),
		tidSeq: map[int]int{},
		names:  map[int]string{},
	}
}

// Span is one in-flight "X" event. Arg and End on a nil span are no-ops,
// so callers never guard on tracing being enabled.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	tid   int
	start time.Time
	args  map[string]any
}

// Start opens a span on the given track (tid). The span is recorded when
// End is called.
func (t *Tracer) Start(cat, name string, tid int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, tid: tid, start: time.Now()}
}

// Arg attaches one key to the span's args, returning the span for
// chaining. Values should be JSON-primitive (string, int, bool, float)
// so traces round-trip losslessly.
func (s *Span) Arg(key string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = v
	return s
}

// End records the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.t.record(Event{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   micros(s.start.Sub(s.t.epoch)),
		Dur:  micros(end.Sub(s.start)),
		PID:  tracePID,
		TID:  s.tid,
		Args: s.args,
	})
}

// Instant records a zero-duration instant event ("i") on a track.
func (t *Tracer) Instant(cat, name string, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.record(Event{
		Name: name,
		Cat:  cat,
		Ph:   "i",
		TS:   micros(time.Since(t.epoch)),
		PID:  tracePID,
		TID:  tid,
		Args: args,
	})
}

// NameThread labels a track with a human-readable name (a "thread_name"
// metadata event in the exported stream). Naming a track twice keeps the
// last name.
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[tid] = name
	t.mu.Unlock()
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	seq := t.tidSeq[ev.TID]
	t.tidSeq[ev.TID] = seq + 1
	t.events = append(t.events, ev)
	t.seqs = append(t.seqs, seq)
	t.mu.Unlock()
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Events returns the collected events in canonical order: thread-name
// metadata first, then spans sorted by (tid, arrival-within-tid). Safe to
// call while spans are still being recorded; in-flight spans are absent.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	type ordered struct {
		ev  Event
		seq int
	}
	evs := make([]ordered, len(t.events))
	for i, ev := range t.events {
		evs[i] = ordered{ev: ev, seq: t.seqs[i]}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].ev.TID != evs[j].ev.TID {
			return evs[i].ev.TID < evs[j].ev.TID
		}
		return evs[i].seq < evs[j].seq
	})

	tids := make([]int, 0, len(t.names))
	for tid := range t.names {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	out := make([]Event, 0, len(tids)+len(evs))
	for _, tid := range tids {
		out = append(out, Event{
			Name: "thread_name",
			Ph:   "M",
			PID:  tracePID,
			TID:  tid,
			Args: map[string]any{"name": t.names[tid]},
		})
	}
	for _, o := range evs {
		out = append(out, o.ev)
	}
	return out
}

// Trace returns the Chrome trace envelope for the collected events.
func (t *Tracer) Trace() Trace {
	return Trace{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
}

// WriteJSON writes the trace as indented Chrome trace JSON — the payload
// of the -trace flag, loadable by chrome://tracing and Perfetto.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Trace())
}
