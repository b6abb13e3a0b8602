package experiments

import (
	"os"
	"testing"

	"repro/internal/exec"
)

// TestFullEquivalence runs EVERY registered experiment at Parallelism 1
// and 8 and asserts byte-identical tables — the acceptance criterion for
// the parallel runtime. The heavy simulation figures make this a
// multi-minute run, so it is gated behind FATPATHS_FULL_EQUIV=1;
// TestParallelSerialEquivalence covers a representative sample on every
// `go test`.
func TestFullEquivalence(t *testing.T) {
	if os.Getenv("FATPATHS_FULL_EQUIV") == "" {
		t.Skip("set FATPATHS_FULL_EQUIV=1 to compare all experiments at parallelism 1 vs 8")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			serialTab, err := e.Run(Options{Quick: true, Run: exec.Run{Seed: 11, Parallelism: 1}})
			if err != nil {
				t.Fatal(err)
			}
			parTab, err := e.Run(Options{Quick: true, Run: exec.Run{Seed: 11, Parallelism: 8}})
			if err != nil {
				t.Fatal(err)
			}
			if serialTab.String() != parTab.String() {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serialTab, parTab)
			}
		})
	}
}
