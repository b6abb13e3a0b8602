package netsim

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/routing"
	"repro/internal/topo"
)

func TestFailRouterLink(t *testing.T) {
	cfg := NDPDefaults()
	s, sf := sfSim(t, 5, 4, 0.7, cfg, 1)
	e := sf.G.Edge(0)
	if !s.Net.FailRouterLink(int(e.U), int(e.V)) {
		t.Fatal("failing an existing link must succeed")
	}
	if s.Net.FailRouterLink(0, 0) {
		t.Fatal("failing a non-link must report false")
	}
}

func TestFatPathsSurvivesLinkFailures(t *testing.T) {
	// §V-G: preprovisioned layers + flowlet redirection route around dead
	// links without recomputation.
	cfg := NDPDefaults()
	cfg.LB = LBFatPaths
	s, sf := sfSim(t, 5, 9, 0.6, cfg, 2)
	rng := graph.NewRand(3)
	failed := s.Net.FailRandomLinks(sf.G.M()/20, rng) // 5% of links
	if len(failed) == 0 {
		t.Fatal("no links failed")
	}
	for i := 0; i < 40; i++ {
		src, dst := graph.SampleDistinctPair(rng, sf.N())
		s.AddFlow(FlowSpec{Src: int32(src), Dst: int32(dst), Bytes: 64 << 10})
	}
	res := s.Run(4 * Second)
	if frac := CompletedFraction(res); frac < 1.0 {
		t.Fatalf("only %.2f of flows completed despite layer redundancy", frac)
	}
}

func TestPinnedMinimalFlowStallsOnFailure(t *testing.T) {
	// Contrast for the test above: a flow pinned to the single minimal
	// path stalls when that path dies — multipathing is what saves
	// FatPaths, not the transport.
	cfg := NDPDefaults()
	cfg.LB = LBMinimalLayer
	s, sf := sfSim(t, 5, 1, 1.0, cfg, 4)
	// Choose endpoints on adjacent routers and kill the direct link; the
	// static layer-0 route 0->neighbor uses it.
	srcRouter := 0
	h := sf.G.Neighbors(srcRouter)[0]
	dstRouter := int(h.To)
	// Find the exact next hop layer 0 uses and break that link.
	next := int(s.Fwd.Next(0, srcRouter, dstRouter))
	if !s.Net.FailRouterLink(srcRouter, next) {
		t.Fatal("could not fail the next-hop link")
	}
	srcLo, _ := sf.Endpoints(srcRouter)
	dstLo, _ := sf.Endpoints(dstRouter)
	s.AddFlow(FlowSpec{Src: int32(srcLo), Dst: int32(dstLo), Bytes: 64 << 10})
	res := s.Run(500 * Millisecond)
	if res[0].Done {
		t.Fatal("pinned minimal-path flow should stall on a dead link")
	}
	if s.Net.routerLink(srcRouter, int32(next)).failDrops == 0 {
		t.Fatal("packets should have died on the failed link")
	}
}

func TestLayerRecomputationAfterFailure(t *testing.T) {
	// §V-G major-update path: recompute forwarding on the surviving links.
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRand(5)
	ls, err := layers.Random(sf.G, 4, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	failed := []int{0, 1, 2}
	repaired := ls.WithoutEdges(failed)
	if repaired.Layers[0].EdgeCount != sf.G.M()-3 {
		t.Fatalf("repaired full layer has %d edges, want %d", repaired.Layers[0].EdgeCount, sf.G.M()-3)
	}
	// Incremental per-destination repair of the routing tables, held
	// against a full rebuild over the repaired layer set.
	fwd := routing.NewEngine(ls.Base, ls.Masks(), 5).WithoutEdges(failed)
	rebuilt := routing.NewEngine(repaired.Base, repaired.Masks(), 5)
	// Layer 0 on the residual graph still routes everything (SF survives
	// three link failures easily).
	for s := 0; s < sf.Nr(); s += 5 {
		for d := 0; d < sf.Nr(); d += 7 {
			if s != d && !fwd.Reachable(0, s, d) {
				t.Fatalf("repaired layer 0 cannot route %d->%d", s, d)
			}
		}
	}
	// And the repaired tables answer exactly as the rebuilt ones, never
	// offering a failed edge as a candidate in any layer.
	dead := map[int]bool{}
	for _, id := range failed {
		dead[id] = true
	}
	for l := 0; l < fwd.NumLayers(); l++ {
		for s := 0; s < sf.Nr(); s++ {
			for d := 0; d < sf.Nr(); d++ {
				if s == d {
					continue
				}
				if fwd.PathLen(l, s, d) != rebuilt.PathLen(l, s, d) || fwd.Next(l, s, d) != rebuilt.Next(l, s, d) ||
					!slices.Equal(fwd.Candidates(l, s, d), rebuilt.Candidates(l, s, d)) {
					t.Fatalf("layer %d %d->%d: incremental repair and rebuild disagree", l, s, d)
				}
				for _, nh := range fwd.Candidates(l, s, d) {
					id := sf.G.EdgeBetween(s, int(nh))
					if dead[id] {
						t.Fatalf("repaired layer %d routes %d->%d over failed edge %d", l, s, d, id)
					}
				}
			}
		}
	}
}

// TestFailRandomLinksExactCount: FailRandomLinks must fail exactly count
// links even when some edge IDs have no failable router-router entry —
// the fixed undercount bug drew only the first count permutation samples
// and silently dropped the unfailable ones instead of drawing
// replacements from the rest of the permutation.
func TestFailRandomLinksExactCount(t *testing.T) {
	cfg := NDPDefaults()
	s, sf := sfSim(t, 5, 2, 0.8, cfg, 11)
	// Let the network draw from an edge list half again as wide as its link
	// set: the extra edge IDs exist in the graph but join routers no link
	// connects, so FailRouterLink reports false for them.
	wide := graph.New(sf.Nr())
	for _, e := range sf.G.Edges() {
		wide.AddEdge(int(e.U), int(e.V))
	}
	unfailable := 0
	for u := 0; u < sf.Nr() && unfailable < sf.G.M()/2; u++ {
		for v := u + 1; v < sf.Nr() && unfailable < sf.G.M()/2; v++ {
			if wide.TryAddEdge(u, v) {
				unfailable++
			}
		}
	}
	s.Net.topo = &topo.Topology{G: wide}
	want := wide.M() / 4
	if want <= unfailable/2 {
		t.Fatalf("test wants a count (%d) large enough to overlap unfailable draws (%d)", want, unfailable)
	}
	failed := s.Net.FailRandomLinks(want, graph.NewRand(13))
	if len(failed) != want {
		t.Fatalf("failed %d links, want exactly %d (undercount regression)", len(failed), want)
	}
	seen := map[int]bool{}
	for _, id := range failed {
		if seen[id] {
			t.Fatalf("edge %d failed twice", id)
		}
		seen[id] = true
		if e := wide.Edge(id); s.Net.routerLink(int(e.U), e.V) == nil {
			t.Fatalf("reported edge %d has no router-router link", id)
		}
	}
	// Asking for more than the failable supply fails everything failable
	// (an already-failed link fails again) and stops, instead of looping
	// or overcounting.
	all := s.Net.FailRandomLinks(wide.M(), graph.NewRand(17))
	if got, wantAll := len(all), sf.G.M(); got != wantAll {
		t.Fatalf("graph-exhausting request failed %d links, want all %d failable", got, wantAll)
	}
}
