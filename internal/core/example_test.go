package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topo"
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

// ExampleFabric_RouterRoute shows the per-layer routes FatPaths exposes
// for one endpoint pair: layer 0 is minimal, sparsified layers are often
// one hop longer — the "almost" shortest paths of the paper.
func ExampleFabric_RouterRoute() {
	sf, _ := topo.SlimFly(5, 0)
	fab, _ := core.Build(sf, core.Config{NumLayers: 3, Rho: 0.6, Seed: 1})
	for layer := 0; layer < fab.Fwd.NumLayers(); layer++ {
		if route := fab.RouterRoute(0, 199, layer); route != nil {
			fmt.Printf("layer %d: %d hops\n", layer, len(route)-1)
		}
	}
	// Output:
	// layer 0: 2 hops
	// layer 1: 3 hops
	// layer 2: 3 hops
}

// Example_majorUpdate is the §V-G "major update" of examples/failover:
// with a fabric's tables all built, fail five links and derive the routing
// without them. A (layer, destination) table is rebuilt only if a failed
// link sat on one of its minimal paths; every other one is shared as-is.
func Example_majorUpdate() {
	sf, err := topo.SlimFly(7, 0)
	if err != nil {
		log.Fatal(err)
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
	// Output: after removing 5 links: 159 of 882 tables shared unchanged, 0 routing holes in layer 0
}
