package topo

import (
	"testing"

	"repro/internal/graph"
)

func TestSlimFlyStructure(t *testing.T) {
	cases := []struct {
		q, wantNr, wantKp, wantD int
	}{
		{5, 50, 7, 2},  // δ=+1
		{7, 98, 11, 2}, // δ=-1
		{11, 242, 17, 2},
		{13, 338, 19, 2},
		{19, 722, 29, 2}, // Table IV row
	}
	for _, c := range cases {
		sf, err := SlimFly(c.q, 0)
		if err != nil {
			t.Fatalf("SlimFly(%d): %v", c.q, err)
		}
		if sf.Nr() != c.wantNr {
			t.Errorf("q=%d: Nr=%d, want %d", c.q, sf.Nr(), c.wantNr)
		}
		if ok, d := sf.G.IsRegular(); !ok || d != c.wantKp {
			t.Errorf("q=%d: regular=(%v,%d), want (true,%d)", c.q, ok, d, c.wantKp)
		}
		d, _ := sf.G.DiameterAndMean()
		if d != c.wantD {
			t.Errorf("q=%d: diameter=%d, want %d", c.q, d, c.wantD)
		}
		if err := sf.Validate(); err != nil {
			t.Errorf("q=%d: %v", c.q, err)
		}
	}
}

func TestSlimFlyTableIVEndpoints(t *testing.T) {
	sf, err := SlimFly(19, 14)
	if err != nil {
		t.Fatal(err)
	}
	if sf.N() != 10108 {
		t.Fatalf("SF(19) N=%d, want 10108 (Table IV)", sf.N())
	}
}

func TestSlimFlyRejectsBadQ(t *testing.T) {
	for _, q := range []int{4, 6, 8, 9, 15, 1, 0, -3} {
		if _, err := SlimFly(q, 0); err == nil {
			t.Errorf("SlimFly(%d) should fail", q)
		}
	}
}

func TestDragonflyStructure(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		df, err := Dragonfly(p)
		if err != nil {
			t.Fatal(err)
		}
		wantNr := 4*p*p*p + 2*p
		if df.Nr() != wantNr {
			t.Errorf("p=%d: Nr=%d, want %d", p, df.Nr(), wantNr)
		}
		if ok, d := df.G.IsRegular(); !ok || d != 3*p-1 {
			t.Errorf("p=%d: not (3p-1)-regular", p)
		}
		if p <= 4 {
			d, _ := df.G.DiameterAndMean()
			if d != 3 {
				t.Errorf("p=%d: diameter=%d, want 3", p, d)
			}
		}
		if err := df.Validate(); err != nil {
			t.Error(err)
		}
	}
	// Table IV row: DF p=8 -> k'=23, Nr=2064, N=16512.
	df, _ := Dragonfly(8)
	if df.Nr() != 2064 || df.NominalRadix != 23 || df.N() != 16512 {
		t.Fatalf("DF(8): Nr=%d k'=%d N=%d, want 2064/23/16512", df.Nr(), df.NominalRadix, df.N())
	}
}

func TestDragonflyGlobalLinksFormCompleteGroupGraph(t *testing.T) {
	p := 3
	df, _ := Dragonfly(p)
	ng := 2*p*p + 1
	seen := make(map[[2]int]int)
	for _, e := range df.G.Edges() {
		// Group g owns the 2p consecutive routers [2p·g, 2p·(g+1)).
		gu, gv := int(e.U)/(2*p), int(e.V)/(2*p)
		if gu == gv {
			continue
		}
		if gu > gv {
			gu, gv = gv, gu
		}
		seen[[2]int{gu, gv}]++
	}
	want := ng * (ng - 1) / 2
	if len(seen) != want {
		t.Fatalf("group pairs with links = %d, want %d", len(seen), want)
	}
	for pair, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("group pair %v has %d links, want exactly 1", pair, cnt)
		}
	}
}

func TestJellyfishStructure(t *testing.T) {
	rng := graph.NewRand(42)
	jf, err := Jellyfish(100, 7, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if jf.Nr() != 100 || jf.N() != 400 {
		t.Fatalf("Nr=%d N=%d", jf.Nr(), jf.N())
	}
	if !jf.G.Connected() {
		t.Fatal("jellyfish must be connected")
	}
	// Degrees: all 7 except possibly one router at 6 (odd Nr*k').
	at7 := 0
	for r := 0; r < jf.Nr(); r++ {
		if jf.G.Degree(r) == 7 {
			at7++
		}
	}
	if at7 < 98 {
		t.Fatalf("%d routers at degree 7: want almost all", at7)
	}
}

func TestJellyfishEvenDegreeExactlyRegular(t *testing.T) {
	rng := graph.NewRand(7)
	jf, err := Jellyfish(60, 6, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ok, d := jf.G.IsRegular(); !ok || d != 6 {
		t.Fatal("JF(60,6) should be 6-regular")
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	a, _ := Jellyfish(50, 5, 3, graph.NewRand(1))
	b, _ := Jellyfish(50, 5, 3, graph.NewRand(1))
	if a.G.M() != b.G.M() {
		t.Fatal("same seed must give same graph")
	}
	for i, e := range a.G.Edges() {
		if e != b.G.Edge(i) {
			t.Fatal("same seed must give identical edge lists")
		}
	}
}

func TestJellyfishInvalidParams(t *testing.T) {
	rng := graph.NewRand(1)
	if _, err := Jellyfish(1, 1, 1, rng); err == nil {
		t.Error("nr=1 should fail")
	}
	if _, err := Jellyfish(10, 10, 1, rng); err == nil {
		t.Error("kp>=nr should fail")
	}
	if _, err := Jellyfish(10, 3, 0, rng); err == nil {
		t.Error("p=0 should fail")
	}
}

func TestXpanderStructure(t *testing.T) {
	rng := graph.NewRand(3)
	xp, err := Xpander(8, 8, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if xp.Nr() != 72 {
		t.Fatalf("Nr=%d, want 72", xp.Nr())
	}
	if ok, d := xp.G.IsRegular(); !ok || d != 8 {
		t.Fatal("Xpander must be 8-regular")
	}
	if !xp.G.Connected() {
		t.Fatal("must be connected")
	}
	d, _ := xp.G.DiameterAndMean()
	if d > 4 {
		t.Fatalf("XP(8,8) diameter=%d, expected <= 4 at this tiny scale", d)
	}
	// The paper's D <= 3 claim holds at its parameters (l = k', k' >= 16).
	xpBig, err := Xpander(16, 16, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := xpBig.G.DiameterAndMean(); d > 3 {
		t.Fatalf("XP(16,16) diameter=%d, expected <= 3", d)
	}
	// Table IV row: XP k'=32, Nr=1056, N=16896.
	xp2, err := Xpander(32, 32, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	if xp2.Nr() != 1056 || xp2.N() != 16896 {
		t.Fatalf("XP(32): Nr=%d N=%d, want 1056/16896", xp2.Nr(), xp2.N())
	}
}

func TestHyperXStructure(t *testing.T) {
	hx, err := HyperX(3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hx.Nr() != 125 {
		t.Fatalf("Nr=%d, want 125", hx.Nr())
	}
	if ok, d := hx.G.IsRegular(); !ok || d != 12 {
		t.Fatal("HX(3,5) must be 12-regular")
	}
	d, _ := hx.G.DiameterAndMean()
	if d != 3 {
		t.Fatalf("diameter=%d, want 3", d)
	}
	// Table IV row: HX S=11 L=3: k'=30, Nr=1331, N=13310.
	hx2, _ := HyperX(3, 11, 10)
	if hx2.Nr() != 1331 || hx2.NominalRadix != 30 || hx2.N() != 13310 {
		t.Fatalf("HX(3,11): Nr=%d k'=%d N=%d", hx2.Nr(), hx2.NominalRadix, hx2.N())
	}
	// 2D HyperX is a rook's graph with diameter 2.
	hx3, _ := HyperX(2, 4, 0)
	if d, _ := hx3.G.DiameterAndMean(); d != 2 {
		t.Fatalf("HX(2,4) diameter=%d, want 2", d)
	}
}

func TestFatTree3Structure(t *testing.T) {
	ft, err := FatTree3(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// m=4 (k=8): Nr=5*16=80, N=2*64=128, D=4.
	if ft.Nr() != 80 || ft.N() != 128 {
		t.Fatalf("FT3(4,1): Nr=%d N=%d, want 80/128", ft.Nr(), ft.N())
	}
	d, _ := ft.G.DiameterAndMean()
	if d != 4 {
		t.Fatalf("diameter=%d, want 4", d)
	}
	// Table IV/V row: k=36 -> m=18, o=1: Nr=1620, N=11664.
	ft2, _ := FatTree3(18, 1)
	if ft2.Nr() != 1620 || ft2.N() != 11664 {
		t.Fatalf("FT3(18,1): Nr=%d N=%d, want 1620/11664", ft2.Nr(), ft2.N())
	}
	// Oversubscribed: doubles endpoints, same routers.
	ft3, _ := FatTree3(4, 2)
	if ft3.Nr() != 80 || ft3.N() != 256 {
		t.Fatalf("FT3(4,2): Nr=%d N=%d, want 80/256", ft3.Nr(), ft3.N())
	}
}

func TestFatTree3Layers(t *testing.T) {
	m := 3
	ft, _ := FatTree3(m, 1)
	// Edge routers host endpoints; agg and core host none.
	for r := 0; r < ft.Nr(); r++ {
		// 2m pods of m edge then m aggregation routers, cores last.
		layer := 1
		switch {
		case r >= 2*m*2*m:
			layer = 2
		case r%(2*m) < m:
			layer = 0
		}
		lo, hi := ft.Endpoints(r)
		hosts := hi - lo
		if layer == 0 && hosts != m {
			t.Fatalf("edge router %d hosts %d, want %d", r, hosts, m)
		}
		if layer != 0 && hosts != 0 {
			t.Fatalf("non-edge router %d hosts %d, want 0", r, hosts)
		}
		// Degree by layer: edge m, agg 2m, core 2m (one per pod... core
		// connects to one agg in each of 2m pods).
		deg := ft.G.Degree(r)
		switch layer {
		case 0:
			if deg != m {
				t.Fatalf("edge degree %d, want %d", deg, m)
			}
		case 1:
			if deg != 2*m {
				t.Fatalf("agg degree %d, want %d", deg, 2*m)
			}
		case 2:
			if deg != 2*m {
				t.Fatalf("core degree %d, want %d", deg, 2*m)
			}
		}
	}
}

func TestCompleteAndStar(t *testing.T) {
	c, err := Complete(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nr() != 10 || c.N() != 90 {
		t.Fatalf("clique: Nr=%d N=%d", c.Nr(), c.N())
	}
	if d, _ := c.G.DiameterAndMean(); d != 1 {
		t.Fatal("clique diameter must be 1")
	}
	s, err := Star(64)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nr() != 1 || s.N() != 64 || s.G.M() != 0 {
		t.Fatal("star must be a single router")
	}
}

func TestRouterOfAndEndpoints(t *testing.T) {
	ft, _ := FatTree3(3, 1)
	for e := 0; e < ft.N(); e++ {
		r := ft.RouterOf(e)
		lo, hi := ft.Endpoints(r)
		if e < lo || e >= hi {
			t.Fatalf("endpoint %d mapped to router %d with range [%d,%d)", e, r, lo, hi)
		}
	}
	// Round-trip over all routers covers all endpoints exactly once.
	covered := 0
	for r := 0; r < ft.Nr(); r++ {
		lo, hi := ft.Endpoints(r)
		covered += hi - lo
	}
	if covered != ft.N() {
		t.Fatalf("endpoint ranges cover %d, want %d", covered, ft.N())
	}
}

func TestEquivalentJellyfish(t *testing.T) {
	sf, _ := SlimFly(7, 0)
	jf, err := EquivalentJellyfish(sf, graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if jf.Nr() != sf.Nr() {
		t.Fatalf("JF Nr=%d, want %d", jf.Nr(), sf.Nr())
	}
	if jf.N() != sf.N() {
		t.Fatalf("JF N=%d, want %d", jf.N(), sf.N())
	}
	if jf.G.M() != sf.G.M() {
		t.Fatalf("JF M=%d, want %d (same hardware)", jf.G.M(), sf.G.M())
	}
}

// TestEquivalentJellyfishEdgeConnectivity is the Jellyfish case of the
// closed-form oracles. A random graph of minimum degree δ is asymptotically
// almost surely δ-edge-connected (Bollobás, "Random Graphs", 2nd ed.,
// ch. 7), so on the repo's own X-JF instances every sampled router pair's
// exact edge connectivity must equal the smaller of its two degrees, which
// is the JF network radix r wherever the wiring filled every port. It logs,
// per instance, the routers left below r and the share of pairs whose
// connectivity falls short of r.
func TestEquivalentJellyfishEdgeConnectivity(t *testing.T) {
	for _, q := range []int{5, 7} {
		sf, err := SlimFly(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 16; seed++ {
			jf, err := EquivalentJellyfish(sf, graph.NewRand(seed))
			if err != nil {
				t.Fatal(err)
			}
			r, nr := jf.NominalRadix, jf.Nr()
			var under []int
			for v := range nr {
				if jf.G.Degree(v) < r {
					under = append(under, v)
				}
			}
			pick := graph.NewRand(seed)
			const pairs = 64
			short := 0
			for range pairs {
				a, b := pick.Intn(nr), pick.Intn(nr-1)
				if b >= a {
					b++
				}
				c, want := jf.G.EdgeConnectivityPair(a, b), min(jf.G.Degree(a), jf.G.Degree(b))
				if c != want {
					t.Errorf("%s seed %d: routers %d-%d have edge connectivity %d, want min degree %d", jf.Name, seed, a, b, c, want)
				}
				if c < r {
					short++
					t.Logf("%s seed %d: routers %d-%d have edge connectivity %d < r = %d", jf.Name, seed, a, b, c, r)
				}
			}
			t.Logf("%s seed %d: routers %v below r = %d; %d of %d sampled pairs fall short of r", jf.Name, seed, under, r, short, pairs)
		}
	}
}

func TestCostModel(t *testing.T) {
	sf, _ := SlimFly(7, 0)
	df, _ := Dragonfly(3)
	cSF, cDF := Cost(sf), Cost(df)
	if cSF.Total() <= 0 || cDF.Total() <= 0 {
		t.Fatal("costs must be positive")
	}
	if cSF.Switches <= 0 || cSF.EndpointLinks <= 0 || cSF.InterconnLinks <= 0 {
		t.Fatal("all components must be positive")
	}
	// Endpoint cost component is topology-independent per endpoint.
	if cSF.EndpointLinks != cDF.EndpointLinks {
		t.Fatal("endpoint-link cost per endpoint should not depend on topology")
	}
}

func TestEdgeDensityAsymptoticallyConstant(t *testing.T) {
	// Fig 19: edge density is ~2-3 and roughly flat in N for each family.
	var prev float64
	for _, q := range []int{5, 7, 11, 13} {
		sf, _ := SlimFly(q, 0)
		d := sf.EdgeDensity()
		if d < 1.5 || d > 3.5 {
			t.Fatalf("SF(q=%d) edge density %f out of the paper's 2-3 band", q, d)
		}
		if prev != 0 && (d/prev > 1.3 || prev/d > 1.3) {
			t.Fatalf("edge density should be roughly flat: %f -> %f", prev, d)
		}
		prev = d
	}
}

func TestBuildSuiteSmall(t *testing.T) {
	s, err := BuildSuite(Small, graph.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range s.All() {
		if err := tp.Validate(); err != nil {
			t.Error(err)
		}
		if tp.N() < 100 || tp.N() > 1200 {
			t.Errorf("%s: N=%d outside the small class", tp.Name, tp.N())
		}
	}
}

func TestBuildSuiteMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium suite is slow in -short mode")
	}
	s, err := BuildSuite(Medium, graph.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range s.All() {
		if err := tp.Validate(); err != nil {
			t.Error(err)
		}
		if tp.N() < 7000 || tp.N() > 18000 {
			t.Errorf("%s: N=%d outside the N≈10k class", tp.Name, tp.N())
		}
	}
}

func TestPrimitiveRoot(t *testing.T) {
	for _, q := range []int{3, 5, 7, 11, 13, 17, 19, 23, 29} {
		xi := primitiveRoot(q)
		seen := map[int]bool{}
		pow := 1
		for i := 0; i < q-1; i++ {
			if seen[pow] {
				t.Fatalf("q=%d: %d is not a primitive root", q, xi)
			}
			seen[pow] = true
			pow = pow * xi % q
		}
	}
}

func TestSlimFlyGeneratorSetsInverseClosed(t *testing.T) {
	for _, q := range []int{5, 7, 11, 13, 19} {
		var delta int
		if q%4 == 1 {
			delta = 1
		} else {
			delta = -1
		}
		X, Xp := mmsGeneratorSets(q, delta, primitiveRoot(q))
		for v := range X {
			if !X[mod(-v, q)] {
				t.Fatalf("q=%d: X not inverse-closed at %d", q, v)
			}
		}
		for v := range Xp {
			if !Xp[mod(-v, q)] {
				t.Fatalf("q=%d: X' not inverse-closed at %d", q, v)
			}
		}
		wantSize := (q - delta) / 2
		if len(X) != wantSize || len(Xp) != wantSize {
			t.Fatalf("q=%d: |X|=%d |X'|=%d, want %d", q, len(X), len(Xp), wantSize)
		}
	}
}

// TestParseSizeClass: the two class names resolve, anything else — a typo
// included — is an error rather than silently the small class.
func TestParseSizeClass(t *testing.T) {
	for name, want := range map[string]SizeClass{"small": Small, "medium": Medium} {
		if got, err := ParseSizeClass(name); err != nil || got != want {
			t.Fatalf("ParseSizeClass(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"meduim", "", "Small", "large"} {
		if _, err := ParseSizeClass(name); err == nil {
			t.Fatalf("ParseSizeClass(%q) accepted", name)
		}
	}
}
