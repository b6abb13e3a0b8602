package layers

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// engine is how every consumer equips a layer set with routing tables: the
// set hands routing.NewEngine its masks. The Forwarding* tests below are the
// engine's contract as a deployed forwarding function, stated over layer
// sets this package builds.
func engine(ls *LayerSet, seed int64) *routing.Engine {
	return routing.NewEngine(ls.Base, ls.Masks(), seed)
}

func TestRandomLayersBasic(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(1)
	ls, err := Random(sf.G, 5, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ls.N() != 5 {
		t.Fatalf("n=%d, want 5", ls.N())
	}
	// Layer 0 is the full graph.
	if ls.Layers[0].EdgeCount != sf.G.M() {
		t.Fatal("layer 0 must contain all links")
	}
	// Sparse layers: roughly rho fraction of edges, and connected.
	for i := 1; i < ls.N(); i++ {
		frac := float64(ls.Layers[i].EdgeCount) / float64(sf.G.M())
		if frac < 0.4 || frac > 0.8 {
			t.Fatalf("layer %d keeps %.2f of edges, want ≈0.6", i, frac)
		}
		if !sf.G.SubsetConnected(ls.Layers[i].Mask) {
			t.Fatalf("layer %d disconnects the network", i)
		}
	}
}

func TestRandomLayersRejectsBadParams(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	rng := graph.NewRand(2)
	if _, err := Random(g, 0, 0.5, rng); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := Random(g, 2, 0, rng); err == nil {
		t.Error("rho=0 must fail")
	}
	if _, err := Random(g, 2, 1.5, rng); err == nil {
		t.Error("rho>1 must fail")
	}
	// A path graph cannot lose any edge and stay connected: with rho=0.1
	// the sampler must either return the (unlikely) full layer or fail.
	if ls, err := Random(g, 2, 0.1, rng); err == nil {
		if !g.SubsetConnected(ls.Layers[1].Mask) {
			t.Error("returned disconnected layer")
		}
	}
}

func TestForwardingLoopFreeAndComplete(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(3)
	ls, err := Random(sf.G, 4, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := engine(ls, 1)
	if f.NumLayers() != 4 {
		t.Fatal("forwarding must cover all layers")
	}
	nr := sf.Nr()
	for layer := 0; layer < f.NumLayers(); layer++ {
		for s := 0; s < nr; s++ {
			for d := 0; d < nr; d++ {
				if s == d {
					continue
				}
				// Connected layers: all pairs reachable, path terminates.
				if !f.Reachable(layer, s, d) {
					t.Fatalf("layer %d: %d->%d unreachable in connected layer", layer, s, d)
				}
				if hops := f.PathLen(layer, s, d); hops < 1 || hops > nr {
					t.Fatalf("layer %d: path %d->%d has %d hops", layer, s, d, hops)
				}
			}
		}
	}
}

func TestForwardingMinimalWithinLayer(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(4)
	ls, _ := Random(sf.G, 3, 0.6, rng)
	f := engine(ls, 1)
	// Within each layer, the forwarding path length equals the BFS
	// distance in the layer subgraph (minimal routing per layer, §V-B).
	for layer := 0; layer < ls.N(); layer++ {
		sub := sf.G.Subgraph(ls.Layers[layer].Mask)
		for s := 0; s < sf.Nr(); s += 7 {
			dist := sub.BFS(s)
			for d := 0; d < sf.Nr(); d += 5 {
				if s == d {
					continue
				}
				if got := f.PathLen(layer, s, d); got != int(dist[d]) {
					t.Fatalf("layer %d %d->%d: forwarding %d hops, BFS %d", layer, s, d, got, dist[d])
				}
			}
		}
	}
}

func TestLayerLocalMinimalIsGloballyNonMinimal(t *testing.T) {
	// The core FatPaths property (§V): minimal routes within a sparse layer
	// are usually non-minimal on the full topology, exposing extra paths.
	sf, _ := topo.SlimFly(7, 0)
	rng := graph.NewRand(5)
	ls, _ := Random(sf.G, 6, 0.5, rng)
	f := engine(ls, 1)
	longer := 0
	pairs := 0
	for i := 0; i < 300; i++ {
		s, d := graph.SampleDistinctPair(rng, sf.Nr())
		base := f.PathLen(0, s, d)
		pairs++
		for l := 1; l < ls.N(); l++ {
			if f.PathLen(l, s, d) > base {
				longer++
				break
			}
		}
	}
	if float64(longer)/float64(pairs) < 0.5 {
		t.Fatalf("only %d/%d pairs gained a non-minimal route; layers are not exposing diversity", longer, pairs)
	}
}

func TestLayerPathLengthsAndPaths(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(6)
	ls, _ := Random(sf.G, 4, 0.7, rng)
	f := engine(ls, 1)
	s, d := 0, 17
	paths := f.LayerPaths(s, d)
	if len(paths) != f.NumLayers() {
		t.Fatalf("%d paths vs %d layers", len(paths), f.NumLayers())
	}
	for i, p := range paths {
		if want := f.PathLen(i, s, d); len(p)-1 != want {
			t.Fatalf("path %d has %d hops, length table says %d", i, len(p)-1, want)
		}
		if p[0] != int32(s) || p[len(p)-1] != int32(d) {
			t.Fatal("path endpoints wrong")
		}
		for j := 0; j+1 < len(p); j++ {
			if !sf.G.HasEdge(int(p[j]), int(p[j+1])) {
				t.Fatal("path uses non-edge")
			}
		}
	}
}

// TestRouteHoleAndSelf covers the walker's two edges: a trivial route is
// the router itself, and a layer that cannot reach dst yields nil where
// the full layer yields the path.
func TestRouteHoleAndSelf(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	ls := &LayerSet{Base: g, Layers: []Layer{
		fullLayer(g),
		{Mask: []bool{true, false}, EdgeCount: 1}, // 1-2 missing
	}}
	f := engine(ls, 1)
	if p := f.Route(0, 0, 2); len(p) != 3 || p[0] != 0 || p[1] != 1 || p[2] != 2 {
		t.Fatalf("full layer route 0->2 = %v, want [0 1 2]", p)
	}
	if p := f.Route(1, 0, 2); p != nil {
		t.Fatalf("route across a hole = %v, want nil", p)
	}
	if p := f.Route(1, 2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("self route = %v, want [2]", p)
	}
	if got := f.LayerPaths(0, 2); len(got) != 1 {
		t.Fatalf("LayerPaths kept %d paths, want only the full layer's", len(got))
	}
}

func TestMinInterferenceLayers(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(7)
	ls, err := MinInterference(sf.G, MinInterferenceConfig{N: 4, ExtraHops: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ls.N() != 4 {
		t.Fatalf("n=%d, want 4", ls.N())
	}
	if ls.Layers[0].EdgeCount != sf.G.M() {
		t.Fatal("layer 0 must be full")
	}
	for i := 1; i < ls.N(); i++ {
		if ls.Layers[i].EdgeCount == 0 {
			t.Fatalf("layer %d is empty", i)
		}
		if ls.Layers[i].EdgeCount >= sf.G.M() {
			t.Fatalf("layer %d is not sparsified", i)
		}
	}
	// Forwarding over these layers must produce some paths one hop above
	// minimal (the +1 preference).
	f := engine(ls, 1)
	nonMinimal := 0
	for i := 0; i < 200; i++ {
		s, d := graph.SampleDistinctPair(rng, sf.Nr())
		base := f.PathLen(0, s, d)
		for l := 1; l < ls.N(); l++ {
			if pl := f.PathLen(l, s, d); pl == base+1 {
				nonMinimal++
				break
			}
		}
	}
	if nonMinimal == 0 {
		t.Fatal("min-interference layers expose no almost-minimal paths")
	}
}

func TestMinInterferenceInvalid(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	rng := graph.NewRand(8)
	if _, err := MinInterference(g, MinInterferenceConfig{N: 0}, rng); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := MinInterference(g, MinInterferenceConfig{N: 2, ExtraHops: -1}, rng); err == nil {
		t.Error("negative ExtraHops must fail")
	}
}

func TestSPAINLayersAreForests(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(9)
	ls, err := SPAIN(sf.G, SPAINConfig{K: 2, MaxLayers: 16}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ls.N() < 2 {
		t.Fatal("SPAIN produced no VLAN layers")
	}
	empty := make([]bool, sf.G.M())
	for i := 1; i < ls.N(); i++ {
		if !acyclicUnion(sf.G, ls.Layers[i].Mask, empty) {
			t.Fatalf("SPAIN layer %d contains a cycle (not a VLAN-deployable forest)", i)
		}
	}
}

func TestVlanCompatible(t *testing.T) {
	// Paths sharing vertex 1 with the same successor 2 are compatible.
	a := []int32{0, 1, 2}
	b := []int32{3, 1, 2}
	next := []int32{-1, -1, -1, -1, -1, -1, -1, -1}
	if !vlanCompatible(next, a, b) {
		t.Fatal("same-successor paths must be compatible")
	}
	// Diverging at vertex 1: incompatible.
	c := []int32{3, 1, 4}
	if vlanCompatible(next, a, c) {
		t.Fatal("diverging paths must be incompatible")
	}
	// Disjoint paths are compatible.
	d := []int32{5, 6, 7}
	if !vlanCompatible(next, a, d) {
		t.Fatal("disjoint paths must be compatible")
	}
	for v, n := range next {
		if n != -1 {
			t.Fatalf("scratch not restored: next[%d]=%d", v, n)
		}
	}
}

func TestGreedyColoringProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := graph.NewRand(seed)
		n := 2 + rng.Intn(30)
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		colors := greedyColoring(adj, rng)
		for v := range adj {
			for _, u := range adj[v] {
				if colors[v] == colors[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPASTLayersAreSpanningTrees(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(10)
	for _, variant := range []PASTVariant{PASTBaseline, PASTNonMinimal} {
		ls, err := PAST(sf.G, 4, variant, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < ls.N(); i++ {
			if ls.Layers[i].EdgeCount != sf.Nr()-1 {
				t.Fatalf("PAST layer %d has %d edges, want Nr-1=%d", i, ls.Layers[i].EdgeCount, sf.Nr()-1)
			}
			if !sf.G.SubsetConnected(ls.Layers[i].Mask) {
				t.Fatalf("PAST layer %d does not span", i)
			}
		}
	}
}

func TestSummarizeDiversityGrowsWithLayers(t *testing.T) {
	sf, _ := topo.SlimFly(7, 0)
	rng := graph.NewRand(11)
	ls2, _ := Random(sf.G, 2, 0.6, graph.NewRand(42))
	ls8, _ := Random(sf.G, 8, 0.6, graph.NewRand(42))
	f2 := engine(ls2, 1)
	f8 := engine(ls8, 1)
	s2 := Summarize(ls2, f2, 200, graph.NewRand(2))
	s8 := Summarize(ls8, f8, 200, graph.NewRand(2))
	if s8.MeanDistinctPaths <= s2.MeanDistinctPaths {
		t.Fatalf("more layers must expose more distinct routes: n=2 gives %.2f, n=8 gives %.2f",
			s2.MeanDistinctPaths, s8.MeanDistinctPaths)
	}
	_ = rng
}

func TestForwardingDeterministicGivenSeed(t *testing.T) {
	// Tie-breaking folds the seed with (layer, src, dst) — a pure function,
	// so two independently constructed views agree everywhere, and every
	// pick is a member of the candidate set.
	sf, _ := topo.SlimFly(5, 0)
	ls, _ := Random(sf.G, 2, 0.8, graph.NewRand(12))
	f1 := engine(ls, 0)
	f2 := engine(ls, 0)
	for l := 0; l < f1.NumLayers(); l++ {
		for s := 0; s < sf.Nr(); s++ {
			for d := 0; d < sf.Nr(); d++ {
				nh := f1.Next(l, s, d)
				if nh != f2.Next(l, s, d) {
					t.Fatal("seeded forwarding must be deterministic")
				}
				if s != d && nh >= 0 {
					found := false
					for _, c := range f1.Candidates(l, s, d) {
						if c == nh {
							found = true
						}
					}
					if !found {
						t.Fatalf("Next(%d,%d,%d)=%d not among candidates", l, s, d, nh)
					}
				}
			}
		}
	}
}

func TestSizeTables(t *testing.T) {
	// The paper's worked example (§V-E): an SF with N=10,830 endpoints has
	// only Nr=722 routers, so prefix tables shrink by N/Nr = 15x.
	sf, err := topo.SlimFly(19, 15)
	if err != nil {
		t.Fatal(err)
	}
	if sf.N() != 10830 || sf.Nr() != 722 {
		t.Fatalf("SF(19,p=15): N=%d Nr=%d, want 10830/722", sf.N(), sf.Nr())
	}
	sz := SizeTables(sf, 9)
	if sz.FlatEntries != 10830*9 || sz.PrefixEntries != 722*9 {
		t.Fatalf("sizing %+v", sz)
	}
	if sz.Compression < 14.9 || sz.Compression > 15.1 {
		t.Fatalf("compression %f, want 15", sz.Compression)
	}
	if !sz.FitsVLANs {
		t.Fatal("9 layers must fit the VLAN space")
	}
	if SizeTables(sf, VLANLimit+1).FitsVLANs {
		t.Fatal("4097 layers must not fit the VLAN space")
	}
}

// Property: every BFS-built forwarding table is loop-free and minimal on
// random connected graphs with random layers.
func TestForwardingLoopFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := graph.NewRand(seed)
		n := 6 + rng.Intn(20)
		g := graph.New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i, rng.Intn(i))
		}
		for i := 0; i < n; i++ {
			g.TryAddEdge(rng.Intn(n), rng.Intn(n))
		}
		ls, err := Random(g, 3, 0.9, rng)
		if err != nil {
			return true // sampler could not keep the graph connected; fine
		}
		fwd := engine(ls, 1)
		for l := 0; l < ls.N(); l++ {
			sub := g.Subgraph(ls.Layers[l].Mask)
			for s := 0; s < n; s++ {
				dist := sub.BFS(s)
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					got := fwd.PathLen(l, s, d)
					if got != int(dist[d]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockAnalysis(t *testing.T) {
	// A spanning tree's routing is always deadlock-free (trees induce no
	// CDG cycles); minimal routing on a ring is the classic deadlocking
	// example (the dependency cycle around the ring).
	ringG := graph.New(6)
	for i := 0; i < 6; i++ {
		ringG.AddEdge(i, (i+1)%6)
	}
	rng := graph.NewRand(31)
	ringLS, _ := Random(ringG, 1, 1.0, rng)
	ringFwd := engine(ringLS, 1)
	rep := AnalyzeDeadlock(ringFwd, ringLS, 0)
	if rep.Acyclic {
		t.Fatal("minimal routing on a ring must have a cyclic CDG")
	}
	if rep.Channels != 12 {
		t.Fatalf("ring uses %d channels, want all 12", rep.Channels)
	}
	// PAST spanning-tree layers: acyclic CDG.
	sf, _ := topo.SlimFly(5, 0)
	past, _ := PAST(sf.G, 3, PASTNonMinimal, rng)
	pastFwd := engine(past, 1)
	for l := 1; l < past.N(); l++ {
		if rep := AnalyzeDeadlock(pastFwd, past, l); !rep.Acyclic {
			t.Fatalf("spanning-tree layer %d must be deadlock-free", l)
		}
	}
	// AnalyzeAllLayers covers every layer.
	all := AnalyzeAllLayers(pastFwd, past)
	if len(all) != past.N() {
		t.Fatalf("got %d reports, want %d", len(all), past.N())
	}
}

func TestLayerSetSerializationRoundTrip(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	rng := graph.NewRand(32)
	ls, err := Random(sf.G, 4, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ls.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLayerSet(&buf, sf.G)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ls.N() || got.Scheme != ls.Scheme || got.Rho != ls.Rho {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range ls.Layers {
		if got.Layers[i].EdgeCount != ls.Layers[i].EdgeCount {
			t.Fatalf("layer %d edge count %d != %d", i, got.Layers[i].EdgeCount, ls.Layers[i].EdgeCount)
		}
		for id := range ls.Layers[i].Mask {
			if got.Layers[i].Mask[id] != ls.Layers[i].Mask[id] {
				t.Fatalf("layer %d mask differs at edge %d", i, id)
			}
		}
	}
	// Forwarding built from the round-tripped set is identical given the
	// same rng.
	f1 := engine(ls, 5)
	f2 := engine(got, 5)
	for l := 0; l < ls.N(); l++ {
		for s := 0; s < sf.Nr(); s += 7 {
			for d := 0; d < sf.Nr(); d += 3 {
				if f1.Next(l, s, d) != f2.Next(l, s, d) {
					t.Fatal("forwarding differs after round trip")
				}
			}
		}
	}
}

func TestLayerSetSerializationRoundTripRepaired(t *testing.T) {
	// The §V-G major-update artifact: a repaired (post-WithoutEdges) layer
	// set survives the JSON round trip with its "+repaired" scheme tag and
	// exact masks, and routing built from the round-tripped set matches.
	sf, _ := topo.SlimFly(5, 0)
	ls, err := Random(sf.G, 3, 0.7, graph.NewRand(40))
	if err != nil {
		t.Fatal(err)
	}
	failed := []int{0, 3, 9}
	repaired := ls.WithoutEdges(failed)
	if repaired.Scheme != "random+repaired" {
		t.Fatalf("scheme %q, want random+repaired", repaired.Scheme)
	}
	var buf bytes.Buffer
	if err := repaired.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLayerSet(bytes.NewReader(buf.Bytes()), sf.G)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != "random+repaired" || got.N() != repaired.N() {
		t.Fatalf("round trip lost metadata: %q, %d layers", got.Scheme, got.N())
	}
	for i := range repaired.Layers {
		if got.Layers[i].EdgeCount != repaired.Layers[i].EdgeCount {
			t.Fatalf("layer %d edge count %d != %d", i, got.Layers[i].EdgeCount, repaired.Layers[i].EdgeCount)
		}
		for id := range repaired.Layers[i].Mask {
			if got.Layers[i].Mask[id] != repaired.Layers[i].Mask[id] {
				t.Fatalf("layer %d mask differs at edge %d", i, id)
			}
		}
		for _, id := range failed {
			if got.Layers[i].Mask[id] {
				t.Fatalf("layer %d still contains failed edge %d after round trip", i, id)
			}
		}
	}
	f1 := engine(repaired, 6)
	f2 := engine(got, 6)
	for l := 0; l < repaired.N(); l++ {
		for s := 0; s < sf.Nr(); s += 7 {
			for d := 0; d < sf.Nr(); d += 3 {
				if f1.Next(l, s, d) != f2.Next(l, s, d) {
					t.Fatal("routing differs after repaired round trip")
				}
			}
		}
	}
	// The vertex/edge-count mismatch error path: a repaired configuration
	// is still for the ORIGINAL base graph (masks shrink, the graph does
	// not), so loading it against a different graph must fail with the
	// count mismatch error.
	other, _ := topo.SlimFly(7, 0)
	if _, err := ReadLayerSet(bytes.NewReader(buf.Bytes()), other.G); err == nil {
		t.Fatal("repaired set must be rejected against a mismatched base graph")
	} else if !strings.Contains(err.Error(), "graph") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestReadLayerSetRejectsMismatch(t *testing.T) {
	sf, _ := topo.SlimFly(5, 0)
	other, _ := topo.SlimFly(7, 0)
	rng := graph.NewRand(33)
	ls, _ := Random(sf.G, 2, 0.8, rng)
	var buf bytes.Buffer
	if err := ls.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLayerSet(&buf, other.G); err == nil {
		t.Fatal("mismatched base graph must be rejected")
	}
	if _, err := ReadLayerSet(strings.NewReader("not json"), sf.G); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := ReadLayerSet(strings.NewReader(`{"vertices":50,"edges":175,"layers":[[9999]]}`), sf.G); err == nil {
		t.Fatal("out-of-range edge IDs must be rejected")
	}
	if _, err := ReadLayerSet(strings.NewReader(`{"vertices":50,"edges":175,"layers":[]}`), sf.G); err == nil {
		t.Fatal("empty layer list must be rejected")
	}
}
