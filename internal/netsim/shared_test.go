package netsim

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/routing"
	"repro/internal/topo"
)

// TestSharedRoutingEngineConcurrent runs replicate simulations of one
// fabric concurrently against a single shared routing.Engine (whose routing
// tables materialize lazily, published by compare-and-swap) and checks
// each replicate's results match a serial run with a private engine
// built from the same layer set and seed — the property the parallel
// experiment runtime depends on.
func TestSharedRoutingEngineConcurrent(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := layers.Random(sf.G, 4, 0.6, graph.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}

	runOnce := func(fwd *routing.Engine, seed int64) []FlowResult {
		cfg := NDPDefaults()
		cfg.LB = LBFatPaths // exercises the per-layer ECMP candidate sets
		cfg.Seed = seed
		sim := NewSim(sf, fwd, cfg)
		rng := graph.NewRand(seed)
		for i := 0; i < 40; i++ {
			src, dst := graph.SampleDistinctPair(rng, sf.N())
			sim.AddFlow(FlowSpec{Src: int32(src), Dst: int32(dst), Bytes: 64 << 10})
		}
		return sim.Run(2 * Second)
	}

	const replicates = 6
	want := make([][]FlowResult, replicates)
	for r := 0; r < replicates; r++ {
		want[r] = runOnce(routing.NewEngine(ls.Base, ls.Masks(), 7), int64(r))
	}

	shared := routing.NewEngine(ls.Base, ls.Masks(), 7)
	got := make([][]FlowResult, replicates)
	var wg sync.WaitGroup
	for r := 0; r < replicates; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = runOnce(shared, int64(r))
		}(r)
	}
	wg.Wait()

	for r := 0; r < replicates; r++ {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("replicate %d: %d results, want %d", r, len(got[r]), len(want[r]))
		}
		for i := range got[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("replicate %d flow %d: %+v != %+v", r, i, got[r][i], want[r][i])
			}
		}
	}
}
