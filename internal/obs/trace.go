package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Tracer records a bounded window of a single simulation's event loop in
// the Chrome trace_event JSON format, loadable in chrome://tracing and
// Perfetto (ui.perfetto.dev). Timestamps are simulation time, so the
// timeline shows the simulated fabric, not wall clock.
//
// One tracer traces one simulation: the first simulation to TryAcquire it
// wins, so a CLI can hand a tracer to a whole sweep and get exactly one
// replicate's timeline. Recording stops silently once the window closes or
// maxTraceEvents is reached — tracing a paper-scale replicate stays bounded.
// A nil *Tracer no-ops everywhere.
type Tracer struct {
	durNs     int64
	maxEvents int

	acquired atomic.Bool

	mu      sync.Mutex
	events  []traceEvent
	dropped int64
}

// traceEvent is one trace_event record. Ts is microseconds (a float), per
// the trace format; IDs scope async (flow) spans.
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	ID   string                 `json:"id,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// maxTraceEvents caps the records one tracer keeps.
const maxTraceEvents = 250_000

// NewTracer traces the sim-time window [0, durNs), keeping at most
// maxTraceEvents records.
func NewTracer(durNs int64) *Tracer {
	return &Tracer{durNs: durNs, maxEvents: maxTraceEvents}
}

// TryAcquire claims the tracer for one simulation; only the first caller
// succeeds. Nil tracers refuse.
func (t *Tracer) TryAcquire() bool {
	if t == nil {
		return false
	}
	return t.acquired.CompareAndSwap(false, true)
}

// Active reports whether an event at sim time tsNs should be recorded.
func (t *Tracer) Active(tsNs int64) bool {
	if t == nil || !t.inWindow(tsNs) {
		return false
	}
	t.mu.Lock()
	ok := len(t.events) < t.maxEvents
	if !ok {
		t.dropped++
	}
	t.mu.Unlock()
	return ok
}

// inWindow reports whether tsNs falls inside the traced window. Every
// record method filters on it, so callers may emit unconditionally (the
// engine still pre-checks Active to skip building event records at all).
func (t *Tracer) inWindow(tsNs int64) bool {
	return t != nil && tsNs >= 0 && tsNs < t.durNs
}

func (t *Tracer) push(ev traceEvent) {
	t.mu.Lock()
	if len(t.events) < t.maxEvents {
		t.events = append(t.events, ev)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Instant records a zero-duration event (ph "i").
func (t *Tracer) Instant(cat, name string, tsNs int64, tid int) {
	if t == nil || !t.inWindow(tsNs) {
		return
	}
	t.push(traceEvent{Name: name, Cat: cat, Ph: "i", Ts: float64(tsNs) / 1e3, Tid: tid,
		Args: map[string]interface{}{"s": "t"}})
}

// CounterEvent records a counter sample (ph "C") rendered as a track in
// the trace viewer.
func (t *Tracer) CounterEvent(name string, tsNs int64, value int64) {
	if t == nil || !t.inWindow(tsNs) {
		return
	}
	t.push(traceEvent{Name: name, Cat: "counter", Ph: "C", Ts: float64(tsNs) / 1e3,
		Args: map[string]interface{}{"value": value}})
}

// SpanBegin opens an async span (ph "b") with the given id — used for
// flow lifetimes, which overlap arbitrarily.
func (t *Tracer) SpanBegin(cat, name, id string, tsNs int64) {
	if t == nil || !t.inWindow(tsNs) {
		return
	}
	t.push(traceEvent{Name: name, Cat: cat, Ph: "b", Ts: float64(tsNs) / 1e3, ID: id})
}

// SpanEnd closes an async span (ph "e").
func (t *Tracer) SpanEnd(cat, name, id string, tsNs int64) {
	if t == nil || !t.inWindow(tsNs) {
		return
	}
	t.push(traceEvent{Name: name, Cat: cat, Ph: "e", Ts: float64(tsNs) / 1e3, ID: id})
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the JSON-object envelope of the trace format.
type traceFile struct {
	TraceEvents     []traceEvent           `json:"traceEvents"`
	DisplayTimeUnit string                 `json:"displayTimeUnit"`
	OtherData       map[string]interface{} `json:"otherData,omitempty"`
}

// Write writes the trace as a JSON object (always valid, even with zero
// events).
func (t *Tracer) Write(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	f := traceFile{
		TraceEvents:     t.events,
		DisplayTimeUnit: "ms",
	}
	if t.dropped > 0 {
		f.OtherData = map[string]interface{}{"droppedEvents": t.dropped}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(f)
}

// WriteFile writes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.Write(f)
}
