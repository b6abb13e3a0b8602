// Observability demo: run one instrumented workload and show every output
// of the internal/obs stack — the metric registry (what happened, in
// aggregate), the JSONL telemetry journal (what each cell cost), and a
// Chrome trace_event timeline of the simulator's event loop (what the
// fabric did, packet by packet, on a bounded window of simulated time).
//
//	go run ./examples/observability
//	go run ./examples/observability -trace trace.json
//
// Then open trace.json in chrome://tracing or https://ui.perfetto.dev:
// rows are destination hosts, the counter track is the event-queue depth,
// and async spans are flow lifetimes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func main() {
	trace := flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
	flag.Parse()

	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		log.Fatal(err)
	}

	// One registry instruments everything below: the routing engine counts
	// table materializations into it, every simulation flushes its tallies
	// into it. The same registry can back any number of fabrics and runs.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *trace != "" {
		// Trace the first 20 simulated milliseconds. One tracer records one
		// simulation: the first replicate to start claims it.
		tracer = obs.NewTracer(0, 20_000_000, 0)
	}
	fab, err := core.Build(sf, core.DefaultConfig(sf))
	if err != nil {
		log.Fatal(err)
	}
	fab.Fwd.SetMetrics(obs.NewRoutingMetrics(reg))

	// The telemetry journal records what each replicate cost in wall time.
	tel := obs.NewTelemetry(os.Stdout)
	const replicates = 3
	tel.Emit(obs.RunStart{Type: "run_start", Name: "obs-demo", Cells: replicates, Workers: 1, Seed: 1, UnixMs: obs.UnixMs()})

	fmt.Fprintf(os.Stderr, "running %d replicates of a randomized-uniform workload on %s...\n", replicates, sf.Name)
	rng := graph.NewRand(1)
	simCfg := netsim.NDPDefaults()
	simCfg.Metrics = obs.NewSimMetrics(reg)
	simCfg.Tracer = tracer
	for i := 0; i < replicates; i++ {
		wl := core.Workload{
			Pattern:  traffic.RandomizeMapping(traffic.RandomPermutation(rng, sf.N()), rng),
			FlowSize: traffic.FixedSize(128 << 10),
			Lambda:   300,
		}
		res := fab.RunWorkload(simCfg, wl, 2*netsim.Second, int64(10+i))
		fct := netsim.SummarizeFCT(res)
		tel.Emit(obs.CellRecord{
			Type: "cell", Name: "obs-demo", Index: i,
			Key:    fmt.Sprintf("replicate %d", i),
			WallMs: fct.Mean, // demo: report the replicate's mean FCT
		})
	}
	tel.Emit(obs.RunEnd{Type: "run_end", Name: "obs-demo", Cells: replicates, UnixMs: obs.UnixMs()})

	// The registry dump is the aggregate story: how many events the three
	// replicates executed, the shape of the FCT and path-length
	// distributions, how many routing tables the shared engine built (the
	// second and third replicates reuse the first's tables — that is the
	// lazy-materialization win made visible).
	fmt.Fprintln(os.Stderr, "\n# metrics")
	reg.Dump(os.Stderr)

	if tracer != nil {
		if err := tracer.WriteFile(*trace); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\ntrace: %d events -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
			tracer.Len(), *trace)
	}
}
