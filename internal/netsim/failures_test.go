package netsim

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/routing"
	"repro/internal/topo"
)

// TestFailRouterLink: failing one link marks its edge's two arc links, one
// per direction, and no other link.
func TestFailRouterLink(t *testing.T) {
	cfg := NDPDefaults()
	s, sf := sfSim(t, 5, 4, 0.7, cfg, 1)
	failed := s.Net.FailRandomLinks(1, graph.NewRand(1))
	if len(failed) != 1 {
		t.Fatalf("failed %d links, want 1", len(failed))
	}
	e := sf.G.Edge(failed[0])
	for i := range s.Net.links {
		l := &s.Net.links[i]
		uv := l.txPart == e.U && l.toRouter == e.V
		vu := l.txPart == e.V && l.toRouter == e.U
		if l.failed != (uv || vu) {
			t.Fatalf("link %d (%d->%d) failed=%v after failing edge %d (%d,%d)", i, l.txPart, l.toRouter, l.failed, failed[0], e.U, e.V)
		}
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
	a := sf.G.Arc(srcRouter, next)
	s.Net.links[a].failed = true
	s.Net.links[a^1].failed = true
	srcLo, _ := sf.Endpoints(srcRouter)
	dstLo, _ := sf.Endpoints(dstRouter)
	s.AddFlow(FlowSpec{Src: int32(srcLo), Dst: int32(dstLo), Bytes: 64 << 10})
	res := s.Run(500 * Millisecond)
	if res[0].Done {
		t.Fatal("pinned minimal-path flow should stall on a dead link")
	}
	if s.Net.links[a].failDrops == 0 {
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

// TestFailRandomLinksExactCount: FailRandomLinks fails exactly count
// distinct edges, both directions of each, and a request beyond the edge
// count fails every edge once.
func TestFailRandomLinksExactCount(t *testing.T) {
	cfg := NDPDefaults()
	s, sf := sfSim(t, 5, 2, 0.8, cfg, 11)
	want := sf.G.M() / 4
	failed := s.Net.FailRandomLinks(want, graph.NewRand(13))
	if len(failed) != want {
		t.Fatalf("failed %d links, want exactly %d", len(failed), want)
	}
	seen := map[int]bool{}
	for _, id := range failed {
		if seen[id] {
			t.Fatalf("edge %d failed twice", id)
		}
		seen[id] = true
		if !s.Net.links[2*id].failed || !s.Net.links[2*id+1].failed {
			t.Fatalf("edge %d: a direction is still up", id)
		}
	}
	down := 0
	for i := range s.Net.links {
		if s.Net.links[i].failed {
			down++
		}
	}
	if down != 2*want {
		t.Fatalf("%d links down, want %d", down, 2*want)
	}
	all := s.Net.FailRandomLinks(sf.G.M()+5, graph.NewRand(17))
	if got := len(all); got != sf.G.M() {
		t.Fatalf("graph-exhausting request failed %d links, want all %d", got, sf.G.M())
	}
}
