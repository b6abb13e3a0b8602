package layers

import (
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// The digests below were recorded on the commit before graph.Dijkstra lost
// container/heap (boxed items, three fresh slices per call). Dijkstra's
// result on a tie-heavy weighting depends on the order equal-distance
// vertices leave the heap, every SPAIN layer depends on those paths, and
// fig9.golden depends on the layers — so the rewrite is pinned path by path,
// not just through the one golden.

func hashPath(h hash.Hash64, p []int32, w float64) {
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(p)))
	for _, v := range p {
		put(uint64(v))
	}
	put(math.Float64bits(w))
}

// dijkstraDigest hashes every path of SPAIN's first stage with K=3 (unit
// weights plus |E| per already-used edge: ties everywhere), then the same
// pairs again under edge and vertex masks, then Yen's 4 shortest on a
// stride of pairs.
func dijkstraDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	nr, m := g.N(), g.M()
	w := make([]float64, m)
	wf := func(id int) float64 { return w[id] }
	edgeOff := make([]bool, m)
	for id := range edgeOff {
		edgeOff[id] = id%5 == 0
	}
	vertOff := make([]bool, nr)
	for u := 0; u < nr; u++ {
		for v := 0; v < nr; v++ {
			if v == u {
				continue
			}
			for i := range w {
				w[i] = 1
			}
			for k := 0; k < 3; k++ {
				p, d := g.Dijkstra(v, u, wf, nil, nil)
				hashPath(h, p, d)
				for i := 0; i+1 < len(p); i++ {
					w[g.EdgeBetween(int(p[i]), int(p[i+1]))] += float64(m)
				}
			}
			for x := range vertOff {
				vertOff[x] = x%7 == 0 && x != u && x != v
			}
			p, d := g.Dijkstra(v, u, wf, edgeOff, vertOff)
			hashPath(h, p, d)
		}
	}
	for s := 0; s < nr; s += 3 {
		t := (s*7 + 5) % nr
		if t == s {
			continue
		}
		for _, p := range g.YenKShortest(s, t, 4, graph.Unit) {
			hashPath(h, p, float64(len(p)-1))
		}
	}
	return h.Sum64()
}

func spainDigest(t *testing.T, g *graph.Graph) uint64 {
	ls, err := SPAIN(g, SPAINConfig{K: 2, MaxLayers: 8}, graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, l := range ls.Layers {
		for _, on := range l.Mask {
			if on {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		h.Write([]byte{2})
	}
	return h.Sum64()
}

func TestDijkstraAndSPAINPinned(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := topo.Xpander(8, 8, 0, graph.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topo.FatTree3(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		t               *topo.Topology
		dijkstra, spain uint64
	}{
		{sf, 0x3806ed121bafd89b, 0x8563436fc93760f2},
		{xp, 0x114cab6402205b51, 0xa2d07685629e8653},
		{ft, 0xffefccd8fe58fd14, 0x333288d1895a0821},
	} {
		if got := dijkstraDigest(c.t.G); got != c.dijkstra {
			t.Errorf("%s: Dijkstra/Yen path digest %#x, pinned %#x", c.t.Name, got, c.dijkstra)
		}
		if got := spainDigest(t, c.t.G); got != c.spain {
			t.Errorf("%s: SPAIN mask digest %#x, pinned %#x", c.t.Name, got, c.spain)
		}
	}
}
