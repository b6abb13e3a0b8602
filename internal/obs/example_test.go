package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Example runs one instrumented workload and shows every output of the
// obs stack: the JSONL telemetry journal (what each replicate cost), the
// metric registry (what happened, in aggregate) and a Chrome trace_event
// timeline of the simulator's event loop (what the fabric did, packet by
// packet, on a bounded window of simulated time). Write the trace to a
// file with Tracer.WriteFile and open it in chrome://tracing or
// ui.perfetto.dev: rows are destination hosts, the counter track is the
// event-queue depth, and async spans are flow lifetimes.
func Example() {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		log.Fatal(err)
	}
	// One registry instruments everything below: the routing engine counts
	// table materializations into it, every simulation flushes its tallies
	// into it.
	reg := obs.NewRegistry()
	fab, err := core.Build(sf, core.DefaultConfig(sf))
	if err != nil {
		log.Fatal(err)
	}
	fab.Fwd.SetMetrics(obs.NewRoutingMetrics(reg))
	// Trace the first 20 simulated milliseconds. One tracer records one
	// simulation: the first replicate to start claims it.
	tracer := obs.NewTracer(20_000_000)

	var journal bytes.Buffer
	tel := obs.NewTelemetry(&journal)
	const replicates = 3
	start := time.Now()
	tel.Emit(obs.RunStart{Type: "run_start", Name: "obs-demo", Cells: replicates, Workers: 1, Seed: 1, UnixMs: obs.UnixMs()})
	rng := graph.NewRand(1)
	simCfg := netsim.NDPDefaults()
	simCfg.Metrics = obs.NewSimMetrics(reg)
	simCfg.Tracer = tracer
	for i := 0; i < replicates; i++ {
		cellStart := time.Now()
		wl := core.Workload{
			Pattern:  traffic.RandomizeMapping(traffic.RandomPermutation(rng, sf.N()), rng),
			FlowSize: traffic.FixedSize(128 << 10),
			Lambda:   300,
		}
		sim := fab.NewSimulation(simCfg)
		wl.Schedule(sim, graph.NewRand(int64(10+i)))
		sim.Run(2 * netsim.Second)
		tel.Emit(obs.CellRecord{Type: "cell", Name: "obs-demo", Index: i,
			Key: fmt.Sprintf("replicate %d", i), WallMs: msSince(cellStart)})
	}
	tel.Emit(obs.RunEnd{Type: "run_end", Name: "obs-demo", Cells: replicates, WallMs: msSince(start), UnixMs: obs.UnixMs()})
	for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
		fmt.Println(withoutWallClock(line))
	}

	// The aggregate story: events the three replicates executed, the
	// shape of the FCT and path-length distributions, and the routing
	// tables the shared engine built — the second and third replicates
	// reuse the first's.
	reg.Dump(os.Stdout)

	var trace bytes.Buffer
	if err := tracer.Write(&trace); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d events, valid JSON %v\n", tracer.Len(), json.Valid(trace.Bytes()))
	// Output:
	// {"cells":3,"name":"obs-demo","seed":1,"type":"run_start","workers":1}
	// {"index":0,"key":"replicate 0","name":"obs-demo","type":"cell"}
	// {"index":1,"key":"replicate 1","name":"obs-demo","type":"cell"}
	// {"index":2,"key":"replicate 2","name":"obs-demo","type":"cell"}
	// {"cells":3,"name":"obs-demo","type":"run_end"}
	// netsim.drops                                 0
	// netsim.event_queue_highwater                 282
	// netsim.events_processed                      96950
	// netsim.flow_fct_ms                           count=598 mean=0.1492 p50=0.2 p90=0.2 p99=0.5 max=0.2323
	// netsim.flow_path_hops                        count=8983 mean=2.461 p50=2 p90=4 p99=4 max=5
	// netsim.flowlet_reroutes                      721
	// netsim.flows_completed                       598
	// netsim.ndp_trims                             13
	// netsim.packets_inflight_highwater            118
	// netsim.retransmits                           13
	// netsim.tcp_timeouts                          0
	// routing.csr_entries_deployed                 26405
	// routing.tables_built                         369
	// routing.tables_invalidated                   0
	// routing.tables_shared                        0
	// trace: 32574 events, valid JSON true
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// withoutWallClock drops the fields of a telemetry record that read the
// wall clock, so the rest can be compared across runs.
func withoutWallClock(line string) string {
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		log.Fatal(err)
	}
	for _, k := range []string{"unixMs", "wallMs", "startOffsetMs", "workerUtil"} {
		delete(rec, k)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
