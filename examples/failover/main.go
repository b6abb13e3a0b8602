// Failover demo (§V-G): FatPaths' fault tolerance comes from
// preprovisioned layers plus flowlet redirection — when links die, flowlets
// simply stop landing on dead paths, with no routing recomputation. This
// example kills a growing fraction of a Slim Fly's links and compares
// FatPaths against a single-shortest-path configuration, then shows the
// "major update" repair path (recomputing forwarding on surviving links).
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func main() {
	sf, err := topo.SlimFly(7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s — %d links\n\n", sf.Name, sf.G.M())
	fmt.Println("64KiB random flows under link failures (NDP transport):")
	fmt.Printf("%-28s %-14s %-12s %-12s\n", "series", "failed links", "completed", "mean FCT ms")

	run := func(label string, lb netsim.LoadBalance, cfg core.Config, failFrac float64) {
		fab, err := core.Build(sf, cfg)
		if err != nil {
			log.Fatal(err)
		}
		simCfg := netsim.NDPDefaults()
		simCfg.LB = lb
		sim := fab.NewSimulation(simCfg)
		nFail := int(failFrac * float64(sf.G.M()))
		sim.Net.FailRandomLinks(nFail, graph.NewRand(7))
		rng := graph.NewRand(1)
		for i := 0; i < 120; i++ {
			s, d := graph.SampleDistinctPair(rng, sf.N())
			sim.AddFlow(netsim.FlowSpec{Src: int32(s), Dst: int32(d), Bytes: 64 << 10})
		}
		res := sim.Run(3 * netsim.Second)
		fct := netsim.SummarizeFCT(res)
		fmt.Printf("%-28s %-14d %-12s %-12.3f\n",
			label, nFail, fmt.Sprintf("%.0f%%", 100*netsim.CompletedFraction(res)), fct.Mean)
	}
	for _, frac := range []float64{0, 0.05, 0.10} {
		run("FatPaths (9 layers)", netsim.LBFatPaths, core.DefaultConfig(sf), frac)
		run("single shortest path", netsim.LBMinimalLayer, core.Config{NumLayers: 1, Rho: 1}, frac)
	}

	// The §V-G "major update" path: repair the routing tables without the
	// failed links. Invalidation is incremental and per destination — a
	// (layer, destination) table is rebuilt only if a removed edge sat on
	// one of its minimal paths; every other table is shared as-is.
	fmt.Println("\nmajor-update repair: recompute routes without the failed links")
	fab, err := core.Build(sf, core.DefaultConfig(sf))
	if err != nil {
		log.Fatal(err)
	}
	fab.Fwd.BuildAll(0)
	failed := []int{0, 1, 2, 3, 4}
	fwd := fab.Fwd.WithoutEdges(failed)
	kept := fwd.Stat()
	holes := 0
	for s := 0; s < sf.Nr(); s++ {
		for d := 0; d < sf.Nr(); d++ {
			if s != d && !fwd.Reachable(0, s, d) {
				holes++
			}
		}
	}
	total := kept.TablesTotal
	fmt.Printf("after removing %d links: %d of %d tables shared unchanged, %d routing holes in layer 0\n",
		len(failed), kept.TablesBuilt, total, holes)
}
