package diversity

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestMinimalPathsClique(t *testing.T) {
	c, _ := topo.Complete(9, 0)
	mp := MinimalPaths(c.G, 0, nil)
	// All pairs at distance 1 with exactly one minimal path.
	if mp.LenHist.Fraction(1) != 1.0 {
		t.Fatalf("clique lmin distribution %v, want all at 1", mp.LenHist)
	}
	if mp.SingleMinimalFrac != 1.0 {
		t.Fatalf("clique single-minimal fraction %f, want 1", mp.SingleMinimalFrac)
	}
}

func TestMinimalPathsSlimFlyFallsShort(t *testing.T) {
	sf, _ := topo.SlimFly(7, 0)
	mp := MinimalPaths(sf.G, 0, nil)
	// §IV-C1: in SF most router pairs are connected by ONE minimal path.
	if mp.SingleMinimalFrac < 0.5 {
		t.Fatalf("SF single-minimal fraction %f, want > 0.5 (shortest paths fall short)", mp.SingleMinimalFrac)
	}
	// Diameter 2: lengths are 1 or 2 only.
	for _, l := range mp.LenHist.Keys() {
		if l < 1 || l > 2 {
			t.Fatalf("unexpected lmin %d on diameter-2 SF", l)
		}
	}
}

func TestMinimalPathsHyperXDiverse(t *testing.T) {
	hx, _ := topo.HyperX(2, 5, 0)
	mp := MinimalPaths(hx.G, 0, nil)
	// Fig 6: HX has the highest minimal diversity — most pairs (those
	// differing in both coordinates) have two disjoint minimal paths.
	if mp.CountHist.Fraction(2) < 0.5 {
		t.Fatalf("HX(2,5) fraction with cmin=2 is %f, want > 0.5", mp.CountHist.Fraction(2))
	}
}

func TestMinimalPathsSampled(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(11)
	mp := MinimalPaths(sf.G, 200, rng)
	if mp.LenHist.Total != 200 {
		t.Fatalf("sampled total %d, want 200", mp.LenHist.Total)
	}
}

func TestCDPCliqueSaturatesAtRadix(t *testing.T) {
	c, _ := topo.Complete(20, 0)
	rng := graph.NewRand(1)
	sum := CDP(c.G, 20, 2, 100, rng)
	// Table IV row "clique": CDP mean = 100% of k'.
	if sum.Mean < 0.99 || sum.Mean > 1.01 {
		t.Fatalf("clique CDP mean %f, want 1.0 (100%% of radix)", sum.Mean)
	}
}

func TestCDPSlimFlyHasNonMinimalDiversity(t *testing.T) {
	sf, _ := topo.SlimFly(7, 0)
	rng := graph.NewRand(2)
	// Almost-minimal paths (l = D+1 = 3) give >= 3 disjoint paths for
	// virtually all pairs (§IV-C2 takeaway).
	sum := CDP(sf.G, sf.NominalRadix, 3, 300, rng)
	if sum.Raw.Percentile(0.02) < 3 {
		t.Fatalf("SF c_3 2%%-tail = %f, want >= 3 disjoint almost-minimal paths", sum.Raw.Percentile(0.02))
	}
	// And strictly more diversity than at l = 2.
	sum2 := CDP(sf.G, sf.NominalRadix, 2, 300, graph.NewRand(2))
	if sum.Mean <= sum2.Mean {
		t.Fatalf("c_3 mean (%f) should exceed c_2 mean (%f)", sum.Mean, sum2.Mean)
	}
}

func TestCDPDistributionMonotoneInL(t *testing.T) {
	df, _ := topo.Dragonfly(3)
	rng := graph.NewRand(3)
	hists := CDPDistribution(df.G, []int{2, 3, 4}, 100, rng)
	if hists[2].Mean() > hists[3].Mean() || hists[3].Mean() > hists[4].Mean() {
		t.Fatalf("CDP must grow with l: %f, %f, %f", hists[2].Mean(), hists[3].Mean(), hists[4].Mean())
	}
}

func TestPathInterferenceNonNegativeAndBounded(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(4)
	pi := PathInterference(sf.G, sf.NominalRadix, 3, 200, rng)
	if pi.Raw.Percentile(0) < 0 {
		t.Fatal("PI must be non-negative")
	}
	if pi.Mean < 0 || pi.Mean > 2 {
		t.Fatalf("PI mean %f out of sane range", pi.Mean)
	}
}

func TestPathInterferenceCliqueSmall(t *testing.T) {
	c, _ := topo.Complete(30, 0)
	rng := graph.NewRand(5)
	pi := PathInterference(c.G, 30, 2, 200, rng)
	// Table IV: clique PI ≈ 2% — two pairs only interfere on the two
	// 2-hop paths through each other's endpoints.
	if pi.Mean > 0.12 {
		t.Fatalf("clique PI mean %f, want small (paper: 2%%)", pi.Mean)
	}
}

func TestTNL(t *testing.T) {
	if got := TNL(10, 100, 2.0); got != 500 {
		t.Fatalf("TNL = %f, want 500", got)
	}
	if got := TNL(10, 100, 0); got != 0 {
		t.Fatal("TNL with zero path length must be 0")
	}
	sf, _ := topo.SlimFly(5, 0)
	_, d := sf.G.DiameterAndMean()
	tnl := TNL(sf.NominalRadix, sf.Nr(), d)
	// SF(5): k'=7, Nr=50, d < 2 => TNL > 175.
	if tnl < 175 || tnl > 350 {
		t.Fatalf("SF(5) TNL = %f out of expected range", tnl)
	}
}

func TestCollisionsControlledOffDiagonal(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0) // p=4, N=200, Nr=50
	// Offset exactly one concentration: every router's 4 endpoints all
	// target the next router -> 50 router pairs with multiplicity 4.
	pat := traffic.OffDiagonal(sf.N(), 4)
	hist := Collisions(sf, pat)
	if hist.Counts[4] != 50 || hist.Total != 50 {
		t.Fatalf("collision histogram %v, want {4:50}", hist)
	}
	frac4, max := CollisionTakeaway(hist)
	if frac4 != 1.0 || max != 4 {
		t.Fatalf("takeaway (%f,%d), want (1,4)", frac4, max)
	}
}

func TestCollisionsPermutationMostlySingle(t *testing.T) {
	sf, _ := topo.SlimFly(7, 0)
	rng := graph.NewRand(6)
	pat := traffic.RandomPermutation(rng, sf.N())
	hist := Collisions(sf, pat)
	// §IV-A: for D>=2 with p=k'/D, fewer than ~1% of router pairs see 4+
	// collisions under a random permutation (small scale is noisier; allow 3%).
	frac4, _ := CollisionTakeaway(hist)
	if frac4 > 0.03 {
		t.Fatalf("fraction with >=4 collisions = %f, want < 0.03", frac4)
	}
}

func TestCollisionsCliqueWorse(t *testing.T) {
	// §IV-A: D=1 cliques see systematically more collisions than D=2 SF at
	// comparable size because p is much larger.
	cl, _ := topo.Complete(31, 31) // Nr=32, N=992
	sf, _ := topo.SlimFly(7, 0)    // N=588
	rng := graph.NewRand(7)
	hc := Collisions(cl, traffic.KRandomPermutations(rng, cl.N(), 4))
	hs := Collisions(sf, traffic.KRandomPermutations(rng, sf.N(), 4))
	fc, _ := CollisionTakeaway(hc)
	fs, _ := CollisionTakeaway(hs)
	if fc <= fs {
		t.Fatalf("clique >=4-collision fraction (%f) should exceed SF's (%f)", fc, fs)
	}
}

func TestEdgeConnectivityBoundedMatchesExact(t *testing.T) {
	// On small random graphs, the rank-based bounded edge connectivity with
	// a generous length bound equals exact Ford-Fulkerson connectivity.
	for seed := int64(0); seed < 10; seed++ {
		rng := graph.NewRand(seed)
		n := 6 + rng.Intn(5)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n)
		}
		for i := 0; i < n; i++ {
			g.TryAddEdge(rng.Intn(n), rng.Intn(n))
		}
		s, t0 := graph.SampleDistinctPair(rng, n)
		exact := g.EdgeConnectivityPair(s, t0)
		got := EdgeConnectivityBounded(g, s, t0, n, rng)
		if got != exact {
			t.Fatalf("seed %d: bounded rank connectivity %d != exact %d", seed, got, exact)
		}
	}
}

func TestEdgeConnectivityBoundedLengthLimit(t *testing.T) {
	// C8: opposite vertices have 2 edge-disjoint 4-hop paths; with
	// maxLen=3 none; with maxLen=4 both (each direction is 4 hops).
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddEdge(i, (i+1)%8)
	}
	rng := graph.NewRand(10)
	if got := EdgeConnectivityBounded(g, 0, 4, 3, rng); got != 0 {
		t.Fatalf("C8 l=3: %d, want 0", got)
	}
	if got := EdgeConnectivityBounded(g, 0, 4, 4, rng); got != 2 {
		t.Fatalf("C8 l=4: %d, want 2", got)
	}
	// Adjacent vertices: direct edge plus the 7-hop way around.
	if got := EdgeConnectivityBounded(g, 0, 1, 1, rng); got != 1 {
		t.Fatalf("C8 l=1: %d, want 1", got)
	}
	if got := EdgeConnectivityBounded(g, 0, 1, 7, rng); got != 2 {
		t.Fatalf("C8 l=7: %d, want 2", got)
	}
}

func TestFieldOps(t *testing.T) {
	for _, a := range []uint64{1, 2, 12345, fieldP - 1} {
		if got := fmul(a, finv(a)); got != 1 {
			t.Fatalf("a * a^-1 = %d, want 1", got)
		}
	}
	if fadd(fieldP-1, 1) != 0 {
		t.Fatal("addition must wrap at p")
	}
	if fsub(0, 1) != fieldP-1 {
		t.Fatal("subtraction must wrap at p")
	}
}

func TestMatRank(t *testing.T) {
	id := [][]uint64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if matRank(id) != 3 {
		t.Fatal("identity rank must be 3")
	}
	dep := [][]uint64{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}
	if matRank(dep) != 2 {
		t.Fatal("rank of dependent rows must be 2")
	}
	if matRank(nil) != 0 {
		t.Fatal("empty rank must be 0")
	}
	zero := [][]uint64{{0, 0}, {0, 0}}
	if matRank(zero) != 0 {
		t.Fatal("zero matrix rank must be 0")
	}
}
