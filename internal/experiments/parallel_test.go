package experiments

import (
	"sync"
	"testing"

	"repro/internal/exec"
)

// TestParallelSerialEquivalence asserts the tentpole determinism guarantee:
// for a sample of experiments spanning the analytic, diversity, and
// packet-simulation runners, the rendered table at Parallelism 8 is
// byte-identical to Parallelism 1 at the same seed.
func TestParallelSerialEquivalence(t *testing.T) {
	ids := []string{"fig4", "fig6", "fig10", "fig19", "tab5", "ext-tables"}
	if !testing.Short() {
		// Packet-level simulations exercise the shared routing engine's
		// lazily built tables and the packet pool under real concurrency.
		ids = append(ids, "fig13", "fig20", "abl-randomization")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			serialTab, err := e.Run(Options{Quick: true, Run: exec.Run{Seed: 3, Parallelism: 1}})
			if err != nil {
				t.Fatal(err)
			}
			parTab, err := e.Run(Options{Quick: true, Run: exec.Run{Seed: 3, Parallelism: 8}})
			if err != nil {
				t.Fatal(err)
			}
			serial, par := serialTab.String(), parTab.String()
			if serial != par {
				t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
			if len(serialTab.Rows) == 0 {
				t.Fatal("no rows")
			}
		})
	}
}

// TestProgressReporting checks the per-cell progress callback: it must be
// invoked once per cell with a monotonically increasing done count ending
// at the total.
func TestProgressReporting(t *testing.T) {
	e, err := ByID("fig19")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var dones []int
	total := -1
	opts := Options{Quick: true, Run: exec.Run{Seed: 1, Parallelism: 4, Progress: func(done, tot int) {
		mu.Lock()
		dones = append(dones, done)
		total = tot
		mu.Unlock()
	}}}
	tab, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(tab.Rows) {
		t.Fatalf("progress total %d, want %d cells", total, len(tab.Rows))
	}
	if len(dones) != total {
		t.Fatalf("progress called %d times, want %d", len(dones), total)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done[%d]=%d, want %d", i, d, i+1)
		}
	}
}
