package main

import (
	"sync"
	"time"
)

// spanLog keeps the traced pass's spans in memory; main writes them to
// bench/out/trace.json when the run ends. Times are relative to epoch.
type spanLog struct {
	mu       sync.Mutex
	spans    []span
	workload string
	epoch    time.Time
}

func (l *spanLog) open(parent int, name, cell string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: l.workload, Cell: cell})
	return id
}

func (l *spanLog) close(id int, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.StartNs = start.Sub(l.epoch).Nanoseconds()
	s.EndNs = s.StartNs + d.Nanoseconds()
}

// do times fn as a span under parent (0 for a root) and returns the span's
// ID, handed to fn so it can parent further spans, and duration.
func (l *spanLog) do(parent int, name, cell string, fn func(id int)) (int, time.Duration) {
	id := l.open(parent, name, cell)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	l.close(id, t0, d)
	return id, d
}

// add records a root span timed elsewhere (a child process's run).
func (l *spanLog) add(name string, start time.Time, d time.Duration) {
	l.close(l.open(0, name, ""), start, d)
}

// since returns the spans recorded from index from on (a workload's own).
func (l *spanLog) since(from int) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans[from:]...)
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durations collects, per span name, the durations in milliseconds.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/1e6)
	}
	return out
}
