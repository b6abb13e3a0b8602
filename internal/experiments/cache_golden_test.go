package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// scenarioBacked lists the experiment IDs that run through the scenario
// engine and therefore gain the durable runtime's content-addressed
// cache via Options.Cache: every simulation ID but fig17.
var scenarioBacked = []string{
	"fig2", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig20", "fig21",
	"abl-transport", "abl-construction", "abl-randomization", "ext-failures", "ext-mptcp",
}

// shortCacheGolden is the subset exercised under -short.
var shortCacheGolden = map[string]bool{"fig2": true, "abl-transport": true}

// TestCacheGolden: scenario-backed experiments render byte-identical
// golden tables with caching on — once cold (populating the cache) and
// once warm (every cell a hit: the warm pass must miss nothing and process
// no simulator event). This is the replay-equals-rerun pin at the
// experiment level: a cached result that changed any byte of any golden
// table fails here.
func TestCacheGolden(t *testing.T) {
	byID := map[string]Experiment{}
	for _, e := range All() {
		byID[e.ID] = e
	}
	for _, id := range scenarioBacked {
		e, ok := byID[id]
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !shortCacheGolden[id] {
				t.Skip("subset only under -short")
			}
			if slowGolden[id] && raceEnabled {
				t.Skip("slow simulation figure: skipped under -race")
			}
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			cache, err := scenario.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, phase := range []string{"cold", "warm"} {
				reg := obs.NewRegistry()
				tab, err := e.Run(Options{Quick: true, Run: exec.Run{Seed: goldenSeed, Parallelism: 8, Obs: reg}, Cache: cache})
				if err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				if got := tab.String(); got != string(want) {
					t.Errorf("%s cached table differs from golden:\n--- got ---\n%s\n--- want ---\n%s", phase, got, want)
				}
				snap := reg.Snapshot()
				misses, events := snap[obs.MetricScenarioCacheMisses], snap[obs.MetricSimEvents]
				if phase == "cold" && (misses == 0 || events == 0) {
					t.Errorf("cold pass: %d cache misses, %d simulator events: it simulated nothing", misses, events)
				}
				if phase == "warm" && (misses != 0 || events != 0) {
					t.Errorf("warm pass: %d cache misses, %d simulator events, want 0 and 0", misses, events)
				}
			}
		})
	}
}
