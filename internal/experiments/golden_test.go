package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
)

var update = flag.Bool("update", false, "regenerate golden tables under testdata/")

// goldenSeed is the fixed seed every golden table is generated with (the
// cmd/experiments default).
const goldenSeed = 42

// slowGolden marks the experiments whose quick-mode runs still take tens
// of seconds each; they are skipped in -short mode and under the race
// detector (which slows simulation severalfold) and covered by the
// dedicated non-race TestGolden CI step instead.
var slowGolden = map[string]bool{"fig14": true, "fig16": true, "fig17": true}

// TestGolden runs every registered experiment at quick scale with a fixed
// seed and compares the rendered table byte-for-byte against the
// checked-in files under testdata/. Goldens are written from
// Parallelism-1 runs (-update) while the test compares a Parallelism-8
// run, so every passing run also re-proves the parallel-runtime
// byte-equivalence guarantee for every experiment ID. After an intentional
// output change, regenerate with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if slowGolden[e.ID] && (testing.Short() || raceEnabled) {
				t.Skip("slow simulation figure: skipped under -short and -race")
			}
			t.Parallel()
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				tab, err := e.Run(Options{Quick: true, Run: exec.Run{Seed: goldenSeed, Parallelism: 1}})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(tab.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			tab, err := e.Run(Options{Quick: true, Run: exec.Run{Seed: goldenSeed, Parallelism: 8}})
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.String(); got != string(want) {
				t.Errorf("table differs from %s (run with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}
