package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func buildSF(t *testing.T, q int, cfg Config) *Fabric {
	t.Helper()
	sf, err := topo.SlimFly(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := Build(sf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

func TestBuildDefault(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	cfg := DefaultConfig(sf)
	fab, err := Build(sf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fab.Layers.N() != cfg.NumLayers {
		t.Fatalf("layers=%d, want %d", fab.Layers.N(), cfg.NumLayers)
	}
	if fab.Fwd.NumLayers() != cfg.NumLayers {
		t.Fatal("forwarding table count mismatch")
	}
}

func TestDefaultConfigPerKind(t *testing.T) {
	hx, _ := topo.HyperX(2, 4, 0)
	if c := DefaultConfig(hx); c.Rho != 0.9 {
		t.Fatalf("HX rho=%f, want 0.9", c.Rho)
	}
	cl, _ := topo.Complete(10, 0)
	if c := DefaultConfig(cl); c.NumLayers != 17 {
		t.Fatalf("clique layers=%d, want 17", c.NumLayers)
	}
}

func TestBuildAllSchemes(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	for _, scheme := range []LayerScheme{RandomSampling, MinInterference, SPAINScheme, PASTScheme} {
		fab, err := Build(sf, Config{NumLayers: 3, Rho: 0.7, Scheme: scheme, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if fab.Layers.N() < 2 {
			t.Fatalf("%v: expected at least 2 layers", scheme)
		}
		if scheme.String() == "unknown" {
			t.Fatalf("scheme %d has no name", scheme)
		}
	}
	if _, err := Build(sf, Config{NumLayers: 0}); err == nil {
		t.Fatal("NumLayers=0 must fail")
	}
	if _, err := Build(sf, Config{NumLayers: 2, Rho: 0.5, Scheme: LayerScheme(99)}); err == nil {
		t.Fatal("unknown scheme must fail")
	}
}

func TestDiversityGrowsWithLayers(t *testing.T) {
	fab2 := buildSF(t, 7, Config{NumLayers: 2, Rho: 0.6, Scheme: RandomSampling, Seed: 3})
	fab9 := buildSF(t, 7, Config{NumLayers: 9, Rho: 0.6, Scheme: RandomSampling, Seed: 3})
	d2 := fab2.Diversity(200, 4)
	d9 := fab9.Diversity(200, 4)
	if d9.MeanDistinctPaths <= d2.MeanDistinctPaths {
		t.Fatalf("9 layers should give more distinct paths than 2 (%f vs %f)",
			d9.MeanDistinctPaths, d2.MeanDistinctPaths)
	}
}

func TestMATPositiveAndLayersHelp(t *testing.T) {
	fab1 := buildSF(t, 5, Config{NumLayers: 1, Rho: 1, Scheme: RandomSampling, Seed: 5})
	fab6 := buildSF(t, 5, Config{NumLayers: 6, Rho: 0.6, Scheme: RandomSampling, Seed: 5})
	rng := graph.NewRand(6)
	pat := traffic.WorstCase(fab1.Topo, 0.55, rng)
	t1, err := fab1.MAT(pat, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := fab6.MAT(pat, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= 0 || t6 <= 0 {
		t.Fatalf("MAT must be positive: %f, %f", t1, t6)
	}
	if t6 < 0.9*t1 {
		t.Fatalf("layered MAT %f much worse than single-layer %f", t6, t1)
	}
}

func TestMATEmptyPattern(t *testing.T) {
	fab := buildSF(t, 5, Config{NumLayers: 2, Rho: 0.8, Scheme: RandomSampling, Seed: 7})
	if _, err := fab.MAT(traffic.Pattern{Name: "empty", N: fab.Topo.N()}, 0.1); err == nil {
		t.Fatal("empty pattern must error")
	}
}

func TestRunWorkload(t *testing.T) {
	fab := buildSF(t, 5, Config{NumLayers: 4, Rho: 0.7, Scheme: RandomSampling, Seed: 8})
	rng := graph.NewRand(9)
	wl := Workload{
		Pattern:  traffic.RandomPermutation(rng, fab.Topo.N()),
		FlowSize: traffic.FixedSize(64 << 10),
		Lambda:   0,
	}
	res := fab.RunWorkload(netsim.NDPDefaults(), wl, 2*netsim.Second, 10)
	if len(res) != len(wl.Pattern.Flows) {
		t.Fatalf("results=%d, want %d", len(res), len(wl.Pattern.Flows))
	}
	if netsim.CompletedFraction(res) < 0.99 {
		t.Fatalf("only %.2f of flows completed", netsim.CompletedFraction(res))
	}
}

func TestRunWorkloadPoisson(t *testing.T) {
	fab := buildSF(t, 5, Config{NumLayers: 4, Rho: 0.7, Scheme: RandomSampling, Seed: 11})
	rng := graph.NewRand(12)
	wl := Workload{
		Pattern:  traffic.RandomPermutation(rng, fab.Topo.N()),
		FlowSize: traffic.PFabricFlowSize,
		Lambda:   200,
	}
	res := fab.RunWorkload(netsim.NDPDefaults(), wl, 5*netsim.Second, 13)
	if netsim.CompletedFraction(res) < 0.95 {
		t.Fatalf("only %.2f of Poisson flows completed", netsim.CompletedFraction(res))
	}
	// Starts must be spread out, not all at zero.
	later := 0
	for _, r := range res {
		if r.Start > 0 {
			later++
		}
	}
	if later < len(res)/2 {
		t.Fatal("Poisson arrivals should spread start times")
	}
}

func TestRunStencilRounds(t *testing.T) {
	fab := buildSF(t, 5, Config{NumLayers: 4, Rho: 0.7, Scheme: RandomSampling, Seed: 14})
	pat := traffic.Stencil2D(fab.Topo.N(), []int{1, 17})
	run := func(rounds int, seed int64) netsim.Time {
		total, ok := fab.RunStencilRounds(netsim.NDPDefaults(), pat, 32<<10, rounds, 2*netsim.Second, seed)
		if !ok {
			t.Fatal("stencil rounds did not complete")
		}
		if total <= 0 {
			t.Fatal("total time must be positive")
		}
		return total
	}
	total := run(3, 15)
	if again := run(3, 15); again != total {
		t.Fatalf("same seed gave %d then %d ns", total, again)
	}
	// The seed must reach the simulations, one fold per round: a second
	// seed draws other flowlet layers, and three rounds are three different
	// simulations rather than one repeated.
	if other := run(3, 16); other == total {
		t.Fatalf("seeds 15 and 16 both gave %d ns: the seed does not reach the rounds", total)
	}
	if one := run(1, 15); total == 3*one {
		t.Fatalf("3 rounds = 3 x the one-round total (%d ns): every round is the same simulation", one)
	}
}

func TestRunWorkloadMPTCP(t *testing.T) {
	fab := buildSF(t, 5, Config{NumLayers: 4, Rho: 0.7, Scheme: RandomSampling, Seed: 21})
	pat := traffic.RandomPermutation(graph.NewRand(22), fab.Topo.N())
	cfg := netsim.TCPDefaults(netsim.TransportTCP)
	res, err := fab.RunWorkloadMPTCP(cfg, pat, 256<<10, 3, 5*netsim.Second, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pat.Flows) {
		t.Fatalf("%d results, want %d", len(res), len(pat.Flows))
	}
	done := 0
	for _, r := range res {
		if r.Done {
			done++
			if r.FCT <= 0 {
				t.Fatal("done message with non-positive FCT")
			}
		}
		if r.Subflows < 1 || r.Subflows > 3 {
			t.Fatalf("subflows=%d, want 1..3", r.Subflows)
		}
	}
	if float64(done)/float64(len(res)) < 0.95 {
		t.Fatalf("only %d/%d striped messages completed", done, len(res))
	}
}

func TestRunWorkloadMPTCPRejectsNDP(t *testing.T) {
	fab := buildSF(t, 5, Config{NumLayers: 2, Rho: 0.8, Scheme: RandomSampling, Seed: 24})
	pat := traffic.RandomPermutation(graph.NewRand(25), fab.Topo.N())
	if _, err := fab.RunWorkloadMPTCP(netsim.NDPDefaults(), pat, 1<<20, 2, netsim.Second, 26); err == nil {
		t.Fatal("NDP transport must be rejected")
	}
	if _, err := fab.RunWorkloadMPTCP(netsim.TCPDefaults(netsim.TransportTCP), pat, 1<<20, 0, netsim.Second, 26); err == nil {
		t.Fatal("k=0 must be rejected")
	}
}
