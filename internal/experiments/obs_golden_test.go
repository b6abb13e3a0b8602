package experiments

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
// perturbs. The sample covers every execution path but one: fig2 (NDP
// scenario matrix), ext-mptcp (a matrix over the TCP and MPTCP
// transports) and ext-tables (runCells without a simulation: fabrics and
// routing tables only, so it has no simulator events to count or trace).
// The one hand-rolled simulation ID, fig17, takes too long to run twice
// here; CI's telemetry smoke step runs it instrumented against its golden.
//
// Each ID runs twice at Parallelism 4, and both runs must count exactly
// what instrumentedCounts records and trace the identical simulation
// (cell 0's first: exec.Run.CellTracer), byte for byte.
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
			var traces [2]bytes.Buffer
			for rep := range traces {
				reg := obs.NewRegistry()
				var telBuf bytes.Buffer
				tracer := obs.NewTracer(50_000_000) // 50 simulated ms
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
				checkCounts(t, reg.Snapshot(), instrumentedCounts[id])
				checkTelemetry(t, id, telBuf.String())
				if simulates && tracer.Len() == 0 {
					t.Error("tracer on, but no events recorded")
				}
				if err := tracer.Write(&traces[rep]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
				t.Error("two runs traced different simulations")
			}
		})
	}
}

// instrumentedCounts are the registry's counters and gauges after one
// instrumented run of each ID; every name not listed is 0. They pin where
// instrumentation attaches (the engine by whoever builds a fabric, the
// simulator by whoever configures one): moving it must change no count.
// The fig2 event tallies moved when tx-done became a reserved deadline
// (6975777 events / high-water 1019 before), with every table
// byte-identical, and both IDs' tallies last moved when scenario cells
// began folding the simulation seed from the run seed and the replicate.
var instrumentedCounts = map[string]map[string]int64{
	"fig2": {
		"netsim.event_queue_highwater":      1170,
		"netsim.events_processed":           4575770,
		"netsim.flowlet_reroutes":           10258,
		"netsim.flows_completed":            3834,
		"netsim.ndp_trims":                  5681,
		"netsim.packets_inflight_highwater": 1036,
		"netsim.retransmits":                5681,
		"routing.csr_entries_deployed":      323408,
		"routing.tables_built":              2320,
	},
	"ext-mptcp": {
		"netsim.drops":                      2525,
		"netsim.event_queue_highwater":      4138,
		"netsim.events_processed":           1769367,
		"netsim.flowlet_reroutes":           2103,
		"netsim.flows_completed":            400,
		"netsim.packets_inflight_highwater": 9129,
		"netsim.retransmits":                3932,
		"netsim.tcp_timeouts":               138,
		"routing.csr_entries_deployed":      13588,
		"routing.tables_built":              200,
	},
	"ext-tables": {
		"routing.csr_entries_deployed": 282021,
		"routing.tables_built":         432,
	},
}

// checkCounts compares a registry snapshot with its recorded counts.
func checkCounts(t *testing.T, snap, want map[string]int64) {
	t.Helper()
	names := slices.Collect(maps.Keys(snap))
	for name := range want {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		if snap[name] != want[name] {
			t.Errorf("%s = %d, want %d", name, snap[name], want[name])
		}
	}
}

// checkTelemetry requires the one cell loop's record sequence.
func checkTelemetry(t *testing.T, id, tel string) {
	t.Helper()
	// Both paths run the one cell loop (exec.Cells), so hand-rolled IDs
	// journal exactly what matrices do: run_start, one keyed cell record
	// per cell, run_end with the worker utilization.
	lines := strings.Split(strings.TrimSpace(tel), "\n")
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
}
