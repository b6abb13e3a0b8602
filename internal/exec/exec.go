// Package exec is the parallel experiment-execution runtime: the run
// context (Run) and the one cell loop (Cells) over a worker-pool
// ParallelMap, plus deterministic seed-splitting. The experiments and
// scenario layers decompose every figure, table and matrix into independent
// cells (one topology/routing/transport/seed combination each), fan them
// out here, and merge results in canonical cell order. Each cell derives
// all of its randomness from FoldSeed(baseSeed, key), where key names what
// the randomness is for: scenario cells fold on a hash of the resource
// (topology, workload, replicate), so a cell draws the same numbers from
// any matrix, and a hand-rolled experiment's cells fold on their fixed
// position in that experiment. The index of whatever loop surrounds the
// call is never a key (detlint's seedfold rule). Results are therefore
// byte-identical regardless of worker count or scheduling order.
package exec

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// FoldSeed derives an independent per-cell seed from a base seed and a cell
// index using the SplitMix64 generator: the returned value is the
// (cell+1)-th output of the SplitMix64 stream seeded with seed. Distinct
// cells therefore receive statistically independent seeds, and the mapping
// is a pure function — no shared state, safe from any goroutine.
//
// Callers that need seeds for resources shared by several cells (rather
// than per-cell seeds) should partition the index space, e.g. by reserving
// indices >= 1<<32 for shared tags.
func FoldSeed(seed int64, cell uint64) int64 {
	z := uint64(seed) + (cell+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// ParallelMap runs fn(i) for every i in [0, n) on up to `workers`
// goroutines and returns the results in index order. workers <= 1 (or
// n <= 1) degrades to a plain sequential loop. Since out[i] depends only on
// fn(i), the returned slice is identical for every worker count provided fn
// is a pure function of its index.
//
// On error the pool stops claiming new indices and ParallelMap returns the
// error from the lowest-indexed cell observed to fail (with concurrent
// failures, which cells ran at all may vary, but experiment cells fail
// deterministically in practice).
func ParallelMap[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		errIdx   = -1
	)
	worker := func() {
		defer wg.Done()
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			v, err := fn(i)
			if err != nil {
				mu.Lock()
				if errIdx < 0 || i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
				return
			}
			out[i] = v
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, firstErr
	}
	return out, nil
}

// WorkerPanic wraps a panic escaping a ParallelMapLabeled worker so the
// crash names the cell that raised it — index, canonical resource key, the
// original panic value, and the stack at the panic site. Without it a
// worker-pool panic surfaces as a bare runtime stack with no indication of
// WHICH of the hundreds of interchangeable cells was responsible.
type WorkerPanic struct {
	Index int
	Label string
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("exec: panic in worker cell %d (%s): %v\n%s", p.Index, p.Label, p.Value, p.Stack)
}

// ParallelMapLabeled is ParallelMap with panic attribution: a panic inside
// fn(i) is recovered on the worker, wrapped as a *WorkerPanic carrying
// label(i), and re-raised on the CALLING goroutine once the pool has
// drained — a panic on a pool goroutine would crash the process before any
// caller could recover it. Already-wrapped panics (nested pools) pass
// through untouched. label may be nil.
func ParallelMapLabeled[T any](workers, n int, label func(i int) string, fn func(i int) (T, error)) ([]T, error) {
	var (
		once sync.Once
		wp   *WorkerPanic
	)
	out, err := ParallelMap(workers, n, func(i int) (out T, err error) {
		defer func() {
			if r := recover(); r != nil {
				p, ok := r.(*WorkerPanic)
				if !ok {
					l := ""
					if label != nil {
						l = label(i)
					}
					p = &WorkerPanic{Index: i, Label: l, Value: r, Stack: debug.Stack()}
				}
				once.Do(func() { wp = p })
				err = p // stops the pool; superseded by the re-panic below
			}
		}()
		return fn(i)
	})
	if wp != nil {
		panic(wp)
	}
	return out, err
}
