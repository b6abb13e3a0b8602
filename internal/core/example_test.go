package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Example builds the smallest Slim Fly, equips it with FatPaths layered
// routing, and routes one message across the fabric — the shortest possible
// end-to-end tour of the public API.
func Example() {
	sf, err := topo.SlimFly(5, 0) // 50 routers, 200 endpoints, diameter 2
	if err != nil {
		log.Fatal(err)
	}
	fab, err := core.Build(sf, core.Config{NumLayers: 4, Rho: 0.7, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	sim := fab.NewSimulation(netsim.NDPDefaults())
	sim.AddFlow(netsim.FlowSpec{Src: 0, Dst: 199, Bytes: 64 << 10})
	res := sim.Run(netsim.Second)
	fmt.Printf("layers=%d done=%v\n", fab.Layers.N(), res[0].Done)
	// Output: layers=4 done=true
}

// Example_quickstart builds a diameter-2 Slim Fly with 588 endpoints,
// equips it with FatPaths' nine layers (one full, eight sparsified at
// ρ=0.6), shows the routes they expose for one endpoint pair, and runs a
// randomized workload on the purified (NDP-style) transport.
func Example_quickstart() {
	sf, err := topo.SlimFly(7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s — %d routers, %d endpoints, diameter %d\n",
		sf.Name, sf.Nr(), sf.N(), sf.Diameter)
	fab, err := core.Build(sf, core.DefaultConfig(sf))
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range fab.Layers.Layers {
		fmt.Printf("  layer %d: %d/%d links\n", i, l.EdgeCount, sf.G.M())
	}

	// Random sampling redraws any layer that disconnects the network, so
	// LayerPaths holds one route per layer, in layer order.
	src, dst := 0, sf.N()-1
	fmt.Printf("routes from endpoint %d to endpoint %d:\n", src, dst)
	for l, route := range fab.Fwd.LayerPaths(sf.RouterOf(src), sf.RouterOf(dst)) {
		fmt.Printf("  layer %d: %d hops via routers %v\n", l, len(route)-1, route)
	}

	// A random-uniform pattern under a randomized mapping, pFabric flow
	// sizes arriving as a Poisson process, flowlets balanced over layers.
	rng := graph.NewRand(1)
	wl := core.Workload{
		Pattern:  traffic.RandomizeMapping(traffic.RandomUniform(rng, sf.N()), rng),
		FlowSize: traffic.PFabricFlowSize,
		Lambda:   300,
	}
	res := fab.RunWorkload(netsim.NDPDefaults(), wl, 10*netsim.Second, 2)
	var tp stats.Sample
	for _, r := range res {
		if r.Done {
			tp.Add(r.ThroughputMiBs())
		}
	}
	tps, fct := tp.Summarize(), netsim.SummarizeFCT(res)
	fmt.Printf("%d flows, %.1f%% completed\n", len(res), 100*netsim.CompletedFraction(res))
	fmt.Printf("throughput/flow: mean %.0f MiB/s, 1%% tail %.0f MiB/s\n", tps.Mean, tps.P01)
	fmt.Printf("FCT: mean %.3f ms, p99 %.3f ms\n", fct.Mean, fct.P99)
	// Output:
	// topology: SF(q=7,p=6) — 98 routers, 588 endpoints, diameter 2
	//   layer 0: 539/539 links
	//   layer 1: 317/539 links
	//   layer 2: 323/539 links
	//   layer 3: 322/539 links
	//   layer 4: 312/539 links
	//   layer 5: 323/539 links
	//   layer 6: 313/539 links
	//   layer 7: 310/539 links
	//   layer 8: 316/539 links
	// routes from endpoint 0 to endpoint 587:
	//   layer 0: 2 hops via routers [0 91 97]
	//   layer 1: 2 hops via routers [0 6 97]
	//   layer 2: 2 hops via routers [0 6 97]
	//   layer 3: 3 hops via routers [0 77 30 97]
	//   layer 4: 2 hops via routers [0 6 97]
	//   layer 5: 4 hops via routers [0 1 85 18 97]
	//   layer 6: 3 hops via routers [0 49 42 97]
	//   layer 7: 3 hops via routers [0 49 42 97]
	//   layer 8: 3 hops via routers [0 49 42 97]
	// 588 flows, 100.0% completed
	// throughput/flow: mean 642 MiB/s, 1% tail 162 MiB/s
	// FCT: mean 0.953 ms, p99 24.236 ms
}

// ExampleFabric_layerPaths shows the per-layer routes FatPaths exposes for
// one endpoint pair — what GET /paths serves: layer 0 is minimal,
// sparsified layers are often one hop longer, the "almost" shortest paths
// of the paper.
func ExampleFabric_layerPaths() {
	sf, _ := topo.SlimFly(5, 0)
	fab, _ := core.Build(sf, core.Config{NumLayers: 3, Rho: 0.6, Seed: 1})
	for layer, route := range fab.Fwd.LayerPaths(sf.RouterOf(0), sf.RouterOf(199)) {
		fmt.Printf("layer %d: %d hops\n", layer, len(route)-1)
	}
	// Output:
	// layer 0: 2 hops
	// layer 1: 3 hops
	// layer 2: 3 hops
}

// Example_adversarial is why shortest paths fall short (§IV-A, §VII-B2):
// every endpoint of a Slim Fly router sends to the next router, so with
// one shortest path per router pair ECMP serializes the colliding flows,
// while FatPaths spreads flowlets over non-minimal layers.
func Example_adversarial() {
	sf, err := topo.SlimFly(7, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Offset exactly one concentration p, so all p endpoint flows of a
	// router target the same next router.
	pat := traffic.OffDiagonal(sf.N(), int(sf.MeanConcentration()))
	frac4, max := diversity.CollisionTakeaway(diversity.Collisions(sf, pat))
	fmt.Printf("pattern %s on %s: max %d collisions per router pair, %.0f%% of pairs with >=4\n",
		pat.Name, sf.Name, max, 100*frac4)

	run := func(label string, cfg core.Config, lb netsim.LoadBalance) {
		fab, err := core.Build(sf, cfg)
		if err != nil {
			log.Fatal(err)
		}
		simCfg := netsim.NDPDefaults()
		simCfg.LB = lb
		wl := core.Workload{Pattern: pat, FlowSize: traffic.FixedSize(512 << 10)}
		res := fab.RunWorkload(simCfg, wl, 10*netsim.Second, 3)
		fct := netsim.SummarizeFCT(res)
		fmt.Printf("%-22s mean FCT %7.3f ms   p99 %7.3f ms   completed %.0f%%\n",
			label, fct.Mean, fct.P99, 100*netsim.CompletedFraction(res))
	}
	run("ECMP (1 shortest path)", core.Config{NumLayers: 1, Rho: 1}, netsim.LBECMP)
	run("LetFlow (minimal)", core.Config{NumLayers: 1, Rho: 1}, netsim.LBLetFlow)
	run("FatPaths (9 layers)", core.DefaultConfig(sf), netsim.LBFatPaths)
	// Output:
	// pattern off-diagonal(c=6) on SF(q=7,p=6): max 6 collisions per router pair, 100% of pairs with >=4
	// ECMP (1 shortest path) mean FCT   2.429 ms   p99   2.587 ms   completed 100%
	// LetFlow (minimal)      mean FCT   2.421 ms   p99   2.587 ms   completed 100%
	// FatPaths (9 layers)    mean FCT   1.498 ms   p99   3.061 ms   completed 100%
}

// Example_cloudTCP is the cloud datacenter setting of §VII-C: a full TCP
// stack over an Xpander with pFabric web-search flow sizes and Poisson
// arrivals, comparing TCP and DCTCP (ECN), each over ECMP and over
// FatPaths' non-minimal multipathing.
func Example_cloudTCP() {
	rng := graph.NewRand(1)
	xp, err := topo.Xpander(8, 8, 0, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s — %d endpoints (expander datacenter)\n", xp.Name, xp.N())
	runs := []struct {
		label string
		tr    netsim.Transport
		lb    netsim.LoadBalance
		cfg   core.Config
	}{
		{"TCP + ECMP", netsim.TransportTCP, netsim.LBECMP, core.Config{NumLayers: 1, Rho: 1}},
		{"DCTCP + ECMP", netsim.TransportDCTCP, netsim.LBECMP, core.Config{NumLayers: 1, Rho: 1}},
		{"TCP + FatPaths", netsim.TransportTCP, netsim.LBFatPaths, core.DefaultConfig(xp)},
		{"DCTCP + FatPaths", netsim.TransportDCTCP, netsim.LBFatPaths, core.DefaultConfig(xp)},
	}
	for _, s := range runs {
		fab, err := core.Build(xp, s.cfg)
		if err != nil {
			log.Fatal(err)
		}
		simCfg := netsim.TCPDefaults(s.tr)
		simCfg.LB = s.lb
		wl := core.Workload{
			Pattern:  traffic.RandomizeMapping(traffic.RandomUniform(rng, xp.N()), rng),
			FlowSize: traffic.PFabricFlowSize,
			Lambda:   200,
		}
		res := fab.RunWorkload(simCfg, wl, 15*netsim.Second, 4)
		fct := netsim.SummarizeFCT(res)
		fmt.Printf("%-18s FCT mean %7.3f ms  p50 %7.3f  p99 %8.3f  completed %.0f%%\n",
			s.label, fct.Mean, fct.P50, fct.P99, 100*netsim.CompletedFraction(res))
	}
	// Output:
	// topology: XP(k'=8,l=8,p=4) — 288 endpoints (expander datacenter)
	// TCP + ECMP         FCT mean   0.682 ms  p50   0.066  p99   25.153  completed 100%
	// DCTCP + ECMP       FCT mean   0.756 ms  p50   0.066  p99   25.126  completed 100%
	// TCP + FatPaths     FCT mean   0.702 ms  p50   0.069  p99   25.218  completed 100%
	// DCTCP + FatPaths   FCT mean   0.719 ms  p50   0.066  p99   25.800  completed 100%
}

// Example_stencil is Fig 17's workload: a bulk-synchronous 2D stencil —
// four off-diagonal exchanges per round, then a barrier — on a Dragonfly,
// comparing ECMP against FatPaths with and without the randomized
// workload mapping of §III-D. One round of 32 KiB exchanges keeps it under
// a second; flows this short end before flowlets spread them, so ECMP
// finishes first. The fig17 experiment sweeps exchanges up to 2 MB.
func Example_stencil() {
	df, err := topo.Dragonfly(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s — %d endpoints\n", df.Name, df.N())
	skewed := traffic.Stencil2D(df.N(), []int{1, 42})
	randomized := traffic.RandomizeMapping(skewed, graph.NewRand(1))

	const rounds = 1
	const flowBytes = 32 << 10
	run := func(label string, pat traffic.Pattern, cfg core.Config, lb netsim.LoadBalance) netsim.Time {
		fab, err := core.Build(df, cfg)
		if err != nil {
			log.Fatal(err)
		}
		simCfg := netsim.TCPDefaults(netsim.TransportTCP)
		simCfg.LB = lb
		total, ok := fab.RunStencilRounds(simCfg, pat, flowBytes, rounds, 6*netsim.Second, 2)
		status := ""
		if !ok {
			status = " (incomplete rounds)"
		}
		fmt.Printf("%-30s %7.3f ms%s\n", label, total.Seconds()*1e3, status)
		return total
	}
	fmt.Printf("%d round(s) of stencil + barrier, %d KiB per exchange (TCP):\n", rounds, flowBytes>>10)
	base := run("ECMP, skewed mapping", skewed, core.Config{NumLayers: 1, Rho: 1}, netsim.LBECMP)
	fp := run("FatPaths, skewed mapping", skewed, core.DefaultConfig(df), netsim.LBFatPaths)
	fpr := run("FatPaths, randomized mapping", randomized, core.DefaultConfig(df), netsim.LBFatPaths)
	// This stencil is locality-tuned (±1 neighbours share a router), so
	// randomization trades that locality for even load: §III-D expects it
	// to pay off on skewed patterns without locality.
	fmt.Printf("speedup over ECMP: FatPaths %.2fx, FatPaths+randomization %.2fx\n",
		float64(base)/float64(fp), float64(base)/float64(fpr))
	// Output:
	// topology: DF(p=3) — 342 endpoints
	// 1 round(s) of stencil + barrier, 32 KiB per exchange (TCP):
	// ECMP, skewed mapping             0.519 ms
	// FatPaths, skewed mapping         0.589 ms
	// FatPaths, randomized mapping     0.562 ms
	// speedup over ECMP: FatPaths 0.88x, FatPaths+randomization 0.92x
}

// Example_majorUpdate is FatPaths' fault tolerance (§V-G). Preprovisioned
// layers plus flowlet redirection ride out link failures with no routing
// recomputation: flowlets stop landing on dead paths, where a single
// shortest path loses its flows. The "major update" then repairs the
// routing without the failed links: a (layer, destination) table is
// rebuilt only if a failed link sat on one of its minimal paths; every
// other one is shared as-is.
func Example_majorUpdate() {
	sf, err := topo.SlimFly(7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("64KiB random flows on %s under link failures (NDP transport):\n", sf.Name)
	fmt.Printf("%-22s %-13s %-10s %s\n", "series", "failed links", "completed", "mean FCT ms")
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
		fmt.Printf("%-22s %-13d %-10s %.3f\n", label, nFail,
			fmt.Sprintf("%.0f%%", 100*netsim.CompletedFraction(res)), netsim.SummarizeFCT(res).Mean)
	}
	for _, frac := range []float64{0, 0.05, 0.10} {
		run("FatPaths (9 layers)", netsim.LBFatPaths, core.DefaultConfig(sf), frac)
		run("single shortest path", netsim.LBMinimalLayer, core.Config{NumLayers: 1, Rho: 1}, frac)
	}

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
	fmt.Printf("after removing %d links: %d of %d tables shared unchanged, %d routing holes in layer 0\n",
		len(failed), kept.TablesBuilt, kept.TablesTotal, holes)
	// Output:
	// 64KiB random flows on SF(q=7,p=6) under link failures (NDP transport):
	// series                 failed links  completed  mean FCT ms
	// FatPaths (9 layers)    0             100%       0.106
	// single shortest path   0             100%       0.108
	// FatPaths (9 layers)    26            100%       3.565
	// single shortest path   26            92%        0.108
	// FatPaths (9 layers)    53            100%       7.704
	// single shortest path   53            84%        0.107
	// after removing 5 links: 159 of 882 tables shared unchanged, 0 routing holes in layer 0
}
