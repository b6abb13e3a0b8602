package exec

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Run is the run context every layer hands down unchanged, from the CLI
// flags to the cell loop: what a run is seeded with, how wide it fans out,
// and who observes it. experiments.Options and scenario.RunOptions embed
// it, so a collaborator added here reaches every cell without being
// re-plumbed through each options struct. The zero value runs on all cores
// at seed 0, unobserved.
type Run struct {
	// Seed drives all randomness.
	Seed int64
	// Parallelism is the number of worker goroutines fanning independent
	// cells out over cores. 0 selects runtime.GOMAXPROCS(0); 1 runs
	// serially. Output is byte-identical for every value: cells derive
	// their RNGs from (Seed, canonical cell coordinates) alone and results
	// merge in cell order.
	Parallelism int
	// Name labels the run in telemetry records (experiment ID, matrix name).
	Name string
	// Progress, when non-nil, is called after each completed cell with the
	// completed and total cell counts. Invocations may originate from
	// worker goroutines but are serialized.
	Progress func(done, total int)
	// Obs, when non-nil, instruments the run: fabrics report routing-core
	// telemetry into it and simulations flush their counters there. Purely
	// observational — output is byte-identical with or without it.
	Obs *obs.Registry
	// Telemetry, when non-nil, receives run_start / per-cell / run_end
	// JSONL records (wall times, worker utilization).
	Telemetry *obs.Telemetry
	// Tracer, when non-nil, records one simulation's event loop (one bounded
	// window per process); CellTracer says which.
	Tracer *obs.Tracer
}

// CellTracer is the run's one tracing rule: cell 0 gets the tracer, every
// other cell nil, and the first simulation of cell 0 to start takes it
// (obs.Tracer.TryAcquire). Which simulation a trace records therefore
// depends on neither the worker count nor scheduling.
func (r Run) CellTracer(cell int) *obs.Tracer {
	if cell != 0 {
		return nil
	}
	return r.Tracer
}

// workers resolves Parallelism to a worker count.
func (r Run) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Cells is the one cell loop: it fans n independent cells out over
// Parallelism goroutines and returns fn's values in cell order. fn(i)
// produces cell i's value and a source tag saying where the value came from
// ("" for freshly computed; the durable runtime reports "cache"/"resume");
// key(i) names the cell in telemetry, error messages and worker-panic
// attribution. Around fn the loop owns everything a run shares: the
// run_start / cell / run_end telemetry records with per-cell wall time and
// worker utilization, serialized progress callbacks, and panic labels. The
// first failing cell's error aborts the run.
func Cells[T any](r Run, n int, key func(i int) string, fn func(i int) (T, string, error)) ([]T, error) {
	var (
		mu   sync.Mutex
		done int
		busy time.Duration
	)
	workers := r.workers()
	//det:allow globalrand -- wall-clock telemetry (run/cell timings) is observational and never feeds table output
	start := time.Now()
	r.Telemetry.Emit(obs.RunStart{
		Type: "run_start", Name: r.Name, Cells: n,
		Workers: workers, Seed: r.Seed, UnixMs: obs.UnixMs(),
	})
	out, err := ParallelMapLabeled(workers, n, key, func(i int) (T, error) {
		//det:allow globalrand -- wall-clock telemetry (per-cell timings) is observational and never feeds table output
		cellStart := time.Now()
		v, source, err := fn(i)
		//det:allow globalrand -- wall-clock telemetry (per-cell timings) is observational and never feeds table output
		wall := time.Since(cellStart)
		if r.Telemetry != nil {
			rec := obs.CellRecord{
				Type: "cell", Name: r.Name, Index: i, Key: key(i),
				WallMs:        wall.Seconds() * 1e3,
				StartOffsetMs: cellStart.Sub(start).Seconds() * 1e3,
				Source:        source,
			}
			if err != nil {
				rec.Err = err.Error()
			}
			r.Telemetry.Emit(rec)
		}
		if err != nil {
			var zero T
			return zero, fmt.Errorf("cell %d (%s): %w", i, key(i), err)
		}
		mu.Lock()
		busy += wall
		done++
		if r.Progress != nil {
			r.Progress(done, n)
		}
		mu.Unlock()
		return v, nil
	})
	//det:allow globalrand -- wall-clock telemetry (worker utilization) is observational and never feeds table output
	elapsed := time.Since(start)
	util := 0.0
	if elapsed > 0 {
		util = busy.Seconds() / (elapsed.Seconds() * float64(workers))
	}
	r.Telemetry.Emit(obs.RunEnd{
		Type: "run_end", Name: r.Name, Cells: n,
		WallMs: elapsed.Seconds() * 1e3, WorkerUtil: util, UnixMs: obs.UnixMs(),
	})
	return out, err
}
