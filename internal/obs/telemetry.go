package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Telemetry is an append-only JSONL sink for run telemetry: one JSON
// object per line, written under a mutex so worker goroutines can emit
// concurrently. A nil *Telemetry discards everything, which is the
// disabled path. It is not the run journal (scenario.Journal), which
// records results by cache identity; a cell record names its cell by key.
type Telemetry struct {
	mu sync.Mutex
	w  io.Writer
	c  io.Closer
}

// NewTelemetry wraps a writer. The caller owns the writer's lifetime.
func NewTelemetry(w io.Writer) *Telemetry { return &Telemetry{w: w} }

// OpenTelemetry opens (or creates) path in append mode, so successive runs
// accumulate into one journal.
func OpenTelemetry(path string) (*Telemetry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Telemetry{w: f, c: f}, nil
}

// Emit marshals v and appends it as one line. Marshal errors surface on
// stderr rather than failing the run — telemetry must never abort work.
func (t *Telemetry) Emit(v interface{}) {
	if t == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: telemetry marshal: %v\n", err)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w.Write(b)
	io.WriteString(t.w, "\n")
}

// Close closes the underlying file when the Telemetry owns one.
func (t *Telemetry) Close() error {
	if t == nil || t.c == nil {
		return nil
	}
	return t.c.Close()
}

// UnixMs returns the wall clock in integer milliseconds (the telemetry
// timestamp base).
func UnixMs() int64 { return time.Now().UnixMilli() }

// RunStart opens a run in the telemetry stream.
type RunStart struct {
	Type string `json:"type"` // "run_start"
	// Name labels the run (matrix name, experiment ID, or CLI label).
	Name    string `json:"name,omitempty"`
	Cells   int    `json:"cells"`
	Workers int    `json:"workers"`
	Seed    int64  `json:"seed"`
	UnixMs  int64  `json:"unixMs"`
}

// CellRecord reports one completed (or failed) cell.
type CellRecord struct {
	Type string `json:"type"` // "cell"
	Name string `json:"name,omitempty"`
	// Index is the cell's position in canonical expansion order; Key names
	// it: scenario.Spec.Key for a scenario cell, "<run>#<index>" for a
	// hand-rolled experiment cell.
	Index int    `json:"index"`
	Key   string `json:"key,omitempty"`
	// WallMs is the cell's execution wall time; StartOffsetMs is the delay
	// between run start and cell start — the queue wait behind earlier
	// cells on the worker pool.
	WallMs        float64 `json:"wallMs"`
	StartOffsetMs float64 `json:"startOffsetMs"`
	// Source records where the durable sweep runtime found the result:
	// "cache" (content-addressed cache hit), "resume" (recorded in the
	// resumed run journal), or empty for a freshly simulated cell.
	Source string `json:"source,omitempty"`
	Err    string `json:"err,omitempty"`
}

// RunEnd closes a run.
type RunEnd struct {
	Type   string  `json:"type"` // "run_end"
	Name   string  `json:"name,omitempty"`
	Cells  int     `json:"cells"`
	WallMs float64 `json:"wallMs"`
	// WorkerUtil is the mean worker-pool utilization: summed cell wall
	// time over (elapsed wall time × workers).
	WorkerUtil float64 `json:"workerUtil"`
	UnixMs     int64   `json:"unixMs"`
}
