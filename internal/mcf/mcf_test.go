package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func ring(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// TestCommoditiesDeterministic: the commodity list must come out in a
// canonical order (map iteration order leaked into the MAT solvers before;
// the golden-table harness caught approximate-MAT results varying run to
// run).
func TestCommoditiesDeterministic(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.RandomUniform(graph.NewRand(3), sf.N())
	first := CommoditiesFromPattern(sf, pat)
	for trial := 0; trial < 5; trial++ {
		again := CommoditiesFromPattern(sf, pat)
		if len(again) != len(first) {
			t.Fatalf("commodity count changed: %d vs %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("commodity order not deterministic at %d: %v vs %v", i, first[i], again[i])
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i].Src < first[i-1].Src ||
			(first[i].Src == first[i-1].Src && first[i].Dst <= first[i-1].Dst) {
			t.Fatalf("commodities not in canonical (Src, Dst) order at %d: %v after %v", i, first[i], first[i-1])
		}
	}
}

func TestGeneralMATRing(t *testing.T) {
	// C4, one commodity 0->2, demand 1: two arc-disjoint 2-hop paths,
	// capacity 1 each -> T = 2.
	g := ring(4)
	got, err := GeneralMAT(g, []Commodity{{Src: 0, Dst: 2, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-6 {
		t.Fatalf("T=%f, want 2", got)
	}
}

func TestGeneralMATContention(t *testing.T) {
	// Path graph 0-1-2: commodities (0->2) and (1->2) both cross arc 1->2
	// with demand 1 each -> T = 0.5.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	got, err := GeneralMAT(g, []Commodity{
		{Src: 0, Dst: 2, Demand: 1},
		{Src: 1, Dst: 2, Demand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("T=%f, want 0.5", got)
	}
}

func TestPathMATMatchesGeneralWhenAllPathsGiven(t *testing.T) {
	// C6, commodity 0->3: both 3-hop paths given explicitly.
	g := ring(6)
	ps := PathSets{
		G:     g,
		Comms: []Commodity{{Src: 0, Dst: 3, Demand: 1}},
		Paths: [][][]int32{{
			{0, 1, 2, 3},
			{0, 5, 4, 3},
		}},
	}
	pathT, err := PathMAT(ps)
	if err != nil {
		t.Fatal(err)
	}
	genT, err := GeneralMAT(g, ps.Comms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pathT-genT) > 1e-6 || math.Abs(pathT-2) > 1e-6 {
		t.Fatalf("pathT=%f genT=%f, want both 2", pathT, genT)
	}
}

func TestPathMATRestrictedIsLower(t *testing.T) {
	// Restricting to a single path halves achievable T on C6.
	g := ring(6)
	ps := PathSets{
		G:     g,
		Comms: []Commodity{{Src: 0, Dst: 3, Demand: 1}},
		Paths: [][][]int32{{{0, 1, 2, 3}}},
	}
	got, err := PathMAT(ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-6 {
		t.Fatalf("single-path T=%f, want 1", got)
	}
}

func TestPathMATSharedBottleneck(t *testing.T) {
	// Two commodities forced through the same arc share its capacity.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 1)
	ps := PathSets{
		G: g,
		Comms: []Commodity{
			{Src: 0, Dst: 2, Demand: 1},
			{Src: 3, Dst: 2, Demand: 1},
		},
		Paths: [][][]int32{
			{{0, 1, 2}},
			{{3, 1, 2}},
		},
	}
	got, err := PathMAT(ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("T=%f, want 0.5", got)
	}
}

func TestPathMATErrorsOnEmptyPathSet(t *testing.T) {
	g := ring(4)
	ps := PathSets{
		G:     g,
		Comms: []Commodity{{Src: 0, Dst: 2, Demand: 1}},
		Paths: [][][]int32{nil},
	}
	if _, err := PathMAT(ps); err == nil {
		t.Fatal("empty path set must error")
	}
}

func TestPathMATApproxMatchesLP(t *testing.T) {
	// Approximation within ~20% of exact on small instances.
	g := ring(6)
	ps := PathSets{
		G:     g,
		Comms: []Commodity{{Src: 0, Dst: 3, Demand: 1}},
		Paths: [][][]int32{{
			{0, 1, 2, 3},
			{0, 5, 4, 3},
		}},
	}
	exact, _ := PathMAT(ps)
	approx, err := PathMATApprox(ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if approx > exact+1e-9 {
		t.Fatalf("approx %f exceeds exact %f", approx, exact)
	}
	if approx < 0.75*exact {
		t.Fatalf("approx %f too far below exact %f", approx, exact)
	}

	// The six fig9 instances (quick scale, 5 random layers, worst-case
	// pattern at 0.55): the simplex optimum must sit inside the bracket the
	// multiplicative-weights scheme guarantees.
	rng := graph.NewRand(42)
	sf, _ := topo.SlimFly(5, 0)
	df, _ := topo.Dragonfly(2)
	hx, _ := topo.HyperX(3, 4, 0)
	xp, _ := topo.Xpander(8, 8, 0, rng)
	ft, _ := topo.FatTree3(4, 2)
	jf, err := topo.EquivalentJellyfish(sf, rng)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.1
	for _, tp := range []*topo.Topology{sf, df, hx, xp, ft, jf} {
		ls, err := layers.Random(tp.G, 5, 0.6, rng)
		if err != nil {
			t.Fatal(err)
		}
		comms := CommoditiesFromPattern(tp, traffic.WorstCase(tp, 0.55, rng))
		ps := FromForwarding(tp.G, routing.NewEngine(ls.Base, ls.Masks(), 1), comms)
		exact, err := PathMAT(ps)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		approx, err := PathMATApprox(ps, eps)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		if hi := approx / math.Pow(1-eps, 3); approx > exact+1e-9 || exact > hi+1e-9 {
			t.Errorf("%s: exact %f outside [approx, approx/(1-eps)^3] = [%f, %f]", tp.Name, exact, approx, hi)
		}
	}
}

func TestPathMATApproxOnLayeredSlimFly(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(1)
	ls, err := layers.Random(sf.G, 4, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := routing.NewEngine(ls.Base, ls.Masks(), 1)
	pat := traffic.WorstCase(sf, 0.3, rng)
	comms := CommoditiesFromPattern(sf, pat)
	if len(comms) == 0 {
		t.Fatal("no commodities")
	}
	ps := FromForwarding(sf.G, f, comms)
	got, err := PathMATApprox(ps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Fatalf("layered SF throughput %f, want positive", got)
	}
	// More layers should never hurt (weakly more path choice).
	ls1, _ := layers.Random(sf.G, 1, 0.6, graph.NewRand(1))
	f1 := routing.NewEngine(ls1.Base, ls1.Masks(), 1)
	ps1 := FromForwarding(sf.G, f1, comms)
	got1, err := PathMATApprox(ps1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got < got1*0.9 {
		t.Fatalf("4-layer T=%f much worse than 1-layer T=%f", got, got1)
	}
}

func TestFromKShortest(t *testing.T) {
	hx, _ := topo.HyperX(2, 3, 0)
	comms := []Commodity{{Src: 0, Dst: 8, Demand: 1}}
	ps := FromKShortest(hx.G, comms, 4)
	if len(ps.Paths[0]) == 0 {
		t.Fatal("no k-shortest paths")
	}
	got, err := PathMAT(ps)
	if err != nil {
		t.Fatal(err)
	}
	// HX(2,3): 0 and 8 differ in both coordinates -> at least 2 disjoint
	// 2-hop paths among the 4 shortest.
	if got < 2-1e-6 {
		t.Fatalf("T=%f, want >= 2", got)
	}
}

func TestCommoditiesFromPattern(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0) // p=4
	pat := traffic.OffDiagonal(sf.N(), 4)
	comms := CommoditiesFromPattern(sf, pat)
	// All 4 endpoints of each router target the next router: 50
	// commodities of demand 4.
	if len(comms) != 50 {
		t.Fatalf("%d commodities, want 50", len(comms))
	}
	for _, c := range comms {
		if c.Demand != 4 {
			t.Fatalf("demand %f, want 4", c.Demand)
		}
	}
}

func TestPathMATApproxBadEps(t *testing.T) {
	g := ring(4)
	ps := PathSets{G: g, Comms: []Commodity{{0, 2, 1}}, Paths: [][][]int32{{{0, 1, 2}}}}
	if _, err := PathMATApprox(ps, 0); err == nil {
		t.Fatal("eps=0 must error")
	}
	if _, err := PathMATApprox(ps, 1); err == nil {
		t.Fatal("eps=1 must error")
	}
}

// Property: adding candidate paths never decreases the exact path-MAT.
func TestPathMATMonotoneInPathsProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := graph.NewRand(seed)
		n := 6 + rng.Intn(4)
		g := ring(n)
		for i := 0; i < n/2; i++ {
			g.TryAddEdge(rng.Intn(n), rng.Intn(n))
		}
		s, d := graph.SampleDistinctPair(rng, n)
		all := g.YenKShortest(s, d, 4, graph.Unit)
		if len(all) < 2 {
			continue
		}
		comms := []Commodity{{Src: s, Dst: d, Demand: 1}}
		t1, err := PathMAT(PathSets{G: g, Comms: comms, Paths: [][][]int32{all[:1]}})
		if err != nil {
			t.Fatal(err)
		}
		t2, err := PathMAT(PathSets{G: g, Comms: comms, Paths: [][][]int32{all}})
		if err != nil {
			t.Fatal(err)
		}
		if t2 < t1-1e-9 {
			t.Fatalf("seed %d: MAT decreased when adding paths: %f -> %f", seed, t1, t2)
		}
	}
}

// Property: path-restricted MAT never exceeds the unrestricted MCF optimum.
func TestPathMATBoundedByGeneralProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := graph.NewRand(seed + 100)
		n := 5 + rng.Intn(3)
		g := ring(n)
		s, d := graph.SampleDistinctPair(rng, n)
		comms := []Commodity{{Src: s, Dst: d, Demand: 1}}
		paths := g.YenKShortest(s, d, 2, graph.Unit)
		restricted, err := PathMAT(PathSets{G: g, Comms: comms, Paths: [][][]int32{paths}})
		if err != nil {
			t.Fatal(err)
		}
		general, err := GeneralMAT(g, comms)
		if err != nil {
			t.Fatal(err)
		}
		if restricted > general+1e-6 {
			t.Fatalf("seed %d: restricted MAT %f exceeds general %f", seed, restricted, general)
		}
	}
}

// TestPathMATCutBound holds the exact path-restricted MAT to the cut bound
// every router proves (ROADMAP 19): router r sends T·out(r), its total
// out-demand scaled by T, through deg(r) unit-capacity out-arcs, so
// T·out(r) ≤ deg(r) for every r. Checked on an SF q=5 worst-case pattern
// at intensity 0.55, over five random layers and over k=5 shortest paths.
func TestPathMATCutBound(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRand(11)
	comms := CommoditiesFromPattern(sf, traffic.WorstCase(sf, 0.55, rng))
	ls, err := layers.Random(sf.G, 5, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, sf.Nr())
	for _, c := range comms {
		out[c.Src] += c.Demand
	}
	for _, c := range []struct {
		name string
		ps   PathSets
	}{
		{"5 random layers", FromForwarding(sf.G, routing.NewEngine(ls.Base, ls.Masks(), 1), comms)},
		{"5 shortest paths", FromKShortest(sf.G, comms, 5)},
	} {
		mat, err := PathMAT(c.ps)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if mat <= 0 {
			t.Fatalf("%s: MAT %f, want positive", c.name, mat)
		}
		for r, d := range out {
			if bound := float64(sf.G.Degree(r)); mat*d > bound+1e-9 {
				t.Errorf("%s: router %d sends T·out = %f·%g = %f over %g links", c.name, r, mat, d, mat*d, bound)
			}
		}
		t.Logf("%s: T = %f", c.name, mat)
	}
}
