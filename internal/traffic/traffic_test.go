package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topo"
)

func TestRandomUniformShape(t *testing.T) {
	rng := graph.NewRand(1)
	p := RandomUniform(rng, 100)
	if len(p.Flows) != 100 {
		t.Fatalf("flows=%d, want 100", len(p.Flows))
	}
	if err := p.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	rng := graph.NewRand(2)
	p := RandomPermutation(rng, 64)
	if err := p.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
	seenSrc := map[int32]bool{}
	seenDst := map[int32]bool{}
	for _, f := range p.Flows {
		if seenSrc[f.Src] || seenDst[f.Dst] {
			t.Fatal("permutation must not repeat sources or destinations")
		}
		seenSrc[f.Src] = true
		seenDst[f.Dst] = true
	}
}

func TestKRandomPermutationsOversubscription(t *testing.T) {
	rng := graph.NewRand(3)
	p := KRandomPermutations(rng, 50, 4)
	// Up to 4 flows per source (fixed points dropped).
	if len(p.Flows) < 150 || len(p.Flows) > 200 {
		t.Fatalf("flows=%d, want ~200", len(p.Flows))
	}
	if err := p.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
}

func TestOffDiagonal(t *testing.T) {
	p := OffDiagonal(10, 3)
	if len(p.Flows) != 10 {
		t.Fatalf("flows=%d", len(p.Flows))
	}
	for _, f := range p.Flows {
		if (int(f.Src)+3)%10 != int(f.Dst) {
			t.Fatalf("flow %v is not the +3 off-diagonal", f)
		}
	}
	// Negative offsets wrap correctly.
	pn := OffDiagonal(10, -3)
	for _, f := range pn.Flows {
		if (int(f.Src)+7)%10 != int(f.Dst) {
			t.Fatalf("flow %v is not the -3 off-diagonal", f)
		}
	}
	if err := pn.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleIsValid(t *testing.T) {
	for _, n := range []int{8, 10, 100, 127, 128, 1000} {
		p := Shuffle(n)
		if err := p.ValidateFlows(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(p.Flows) == 0 {
			t.Fatalf("n=%d: shuffle produced no flows", n)
		}
	}
}

func TestStencilOverlay(t *testing.T) {
	p := Stencil2D(100, []int{1, 42})
	// 4 off-diagonals of 100 flows each.
	if len(p.Flows) != 400 {
		t.Fatalf("flows=%d, want 400", len(p.Flows))
	}
	if err := p.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
	// Default offsets adapt to large N.
	big := DefaultStencil(20000)
	if err := big.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialOffDiagonal(t *testing.T) {
	sf, _ := topo.SlimFly(7, 0)
	p := AdversarialOffDiagonal(sf)
	if err := p.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != sf.N() {
		t.Fatalf("flows=%d, want %d", len(p.Flows), sf.N())
	}
}

// meanRouterDistance is the average router-level hop distance of p's flows
// on t (SF is connected, so every distance is finite).
func meanRouterDistance(t *topo.Topology, p Pattern) float64 {
	var sum float64
	for _, f := range p.Flows {
		sum += float64(t.G.BFS(t.RouterOf(int(f.Src)))[t.RouterOf(int(f.Dst))])
	}
	return sum / float64(len(p.Flows))
}

func TestWorstCaseStressesNetwork(t *testing.T) {
	sf, _ := topo.SlimFly(7, 0)
	rng := graph.NewRand(4)
	wc := WorstCase(sf, 1.0, rng)
	if err := wc.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
	// Mean router distance of worst-case must exceed random uniform's
	// (that's the point of the max-weight matching).
	ru := RandomUniform(rng, sf.N())
	if meanRouterDistance(sf, wc) < meanRouterDistance(sf, ru) {
		t.Fatalf("worst-case mean distance %.3f < random uniform %.3f",
			meanRouterDistance(sf, wc), meanRouterDistance(sf, ru))
	}
	// On a diameter-2 SF the matching should be essentially all at 2 hops.
	if d := meanRouterDistance(sf, wc); d < 1.9 {
		t.Fatalf("worst-case mean distance %.3f, want ~2 on SF", d)
	}
}

func TestWorstCaseIntensity(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(5)
	full := WorstCase(sf, 1.0, rng)
	half := WorstCase(sf, 0.5, graph.NewRand(5))
	if len(half.Flows) >= len(full.Flows) {
		t.Fatalf("intensity 0.5 should thin flows: %d vs %d", len(half.Flows), len(full.Flows))
	}
}

func TestRandomizeMappingPreservesStructure(t *testing.T) {
	rng := graph.NewRand(6)
	p := OffDiagonal(100, 1)
	r := RandomizeMapping(p, rng)
	if len(r.Flows) != len(p.Flows) {
		t.Fatal("randomization must preserve flow count")
	}
	if err := r.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
	// In-degree/out-degree multiset preserved (still a permutation).
	out := map[int32]int{}
	in := map[int32]int{}
	for _, f := range r.Flows {
		out[f.Src]++
		in[f.Dst]++
	}
	for _, c := range out {
		if c != 1 {
			t.Fatal("randomized off-diagonal must remain a permutation")
		}
	}
	for _, c := range in {
		if c != 1 {
			t.Fatal("randomized off-diagonal must remain a permutation")
		}
	}
}

func TestPFabricMeanAboutOneMB(t *testing.T) {
	mean := PFabricMean()
	if mean < 0.7e6 || mean > 1.3e6 {
		t.Fatalf("pFabric mean = %.0f bytes, want ≈1MB", mean)
	}
}

func TestPFabricSamplerMatchesCDF(t *testing.T) {
	rng := graph.NewRand(7)
	var sum float64
	const n = 200000
	small := 0
	for i := 0; i < n; i++ {
		v := PFabricFlowSize(rng)
		sum += float64(v)
		if v <= 50e3 {
			small++
		}
	}
	mean := sum / n
	want := PFabricMean()
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("sampled mean %.0f deviates from exact %.0f", mean, want)
	}
	// CDF at 50KB is 0.475: roughly half of flows are small.
	frac := float64(small) / n
	if frac < 0.45 || frac > 0.50 {
		t.Fatalf("P(size<=50KB) = %.3f, want ≈0.475", frac)
	}
}

func TestExpInterarrival(t *testing.T) {
	rng := graph.NewRand(8)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += ExpInterarrival(rng, 200)
	}
	mean := sum / n
	if math.Abs(mean-1.0/200)/(1.0/200) > 0.05 {
		t.Fatalf("mean interarrival %.6f, want 0.005", mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate must panic")
		}
	}()
	ExpInterarrival(rng, 0)
}

func TestIntensityThinning(t *testing.T) {
	rng := graph.NewRand(9)
	p := OffDiagonal(1000, 7)
	thin := Intensity(p, 0.3, rng)
	if len(thin.Flows) < 200 || len(thin.Flows) > 400 {
		t.Fatalf("thinned to %d flows, want ≈300", len(thin.Flows))
	}
	same := Intensity(p, 1.0, rng)
	if len(same.Flows) != len(p.Flows) {
		t.Fatal("intensity 1.0 must be identity")
	}
}

func TestPatternsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := graph.NewRand(seed)
		n := 10 + rng.Intn(200)
		pats := []Pattern{
			RandomUniform(rng, n),
			RandomPermutation(rng, n),
			OffDiagonal(n, 1+rng.Intn(n-1)),
			Shuffle(n),
			DefaultStencil(n),
		}
		for _, p := range pats {
			if p.ValidateFlows() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
