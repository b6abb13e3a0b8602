package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// TestGoldenWithInstrumentation re-runs a sample of experiment IDs with the
// full observability stack attached — metrics registry, JSONL telemetry,
// and an event-loop tracer — and compares the rendered tables
// byte-for-byte against the same goldens the plain runs use. This is the
// tentpole guarantee of the obs layer: instrumentation observes, it never
// perturbs. The sample has one ID per execution path: fig2 (scenario
// matrix), ext-mptcp (hand-rolled simulation cells over runCells) and
// ext-tables (runCells without a simulation: fabrics and routing tables
// only, so it has no simulator events to count or trace).
func TestGoldenWithInstrumentation(t *testing.T) {
	for _, id := range []string{"fig2", "ext-mptcp", "ext-tables"} {
		id := id
		simulates := id != "ext-tables"
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			reg := obs.NewRegistry()
			var telBuf bytes.Buffer
			tracer := obs.NewTracer(0, 50_000_000, 0) // 50 simulated ms
			tab, err := e.Run(Options{Quick: true, Run: exec.Run{
				Seed: goldenSeed, Parallelism: 4, Name: id,
				Obs: reg, Telemetry: obs.NewTelemetry(&telBuf), Tracer: tracer,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.String(); got != string(want) {
				t.Errorf("instrumented run diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}

			// The instrumentation must also have actually observed the run.
			snap := reg.Snapshot()
			if simulates && snap[obs.MetricSimEvents] == 0 {
				t.Error("metrics on, but netsim.events_processed = 0")
			}
			if snap[obs.MetricRoutingTablesBuilt] == 0 {
				t.Error("metrics on, but routing.tables_built = 0")
			}
			// Both paths run the one cell loop (exec.Cells), so hand-rolled
			// IDs journal exactly what matrices do: run_start, one keyed cell
			// record per cell, run_end with the worker utilization.
			lines := strings.Split(strings.TrimSpace(telBuf.String()), "\n")
			for i, line := range lines {
				var rec map[string]any
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("telemetry line is not JSON: %v\n%s", err, line)
				}
				switch {
				case i == 0:
					if rec["type"] != "run_start" || rec["name"] != id || rec["cells"] != float64(len(lines)-2) {
						t.Fatalf("bad run_start for %d lines: %s", len(lines), line)
					}
				case i == len(lines)-1:
					if _, ok := rec["workerUtil"]; rec["type"] != "run_end" || !ok {
						t.Fatalf("bad run_end: %s", line)
					}
				default:
					if key, _ := rec["key"].(string); rec["type"] != "cell" || key == "" {
						t.Fatalf("line %d: want a cell record with a non-empty key: %s", i, line)
					}
				}
			}
			if len(lines) < 3 {
				t.Error("telemetry on, but no cell records emitted")
			}
			if simulates && tracer.Len() == 0 {
				t.Error("tracer on, but no events recorded")
			}
		})
	}
}
