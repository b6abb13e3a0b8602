package diversity

import (
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Collisions computes the Fig 4 histogram: for every ordered router pair
// (r_s, r_t) used by at least one flow of the pattern, the number of flows
// whose source endpoint sits on r_s and destination endpoint on r_t. Two
// flows with the same router pair "collide" — with single-shortest-path
// routing they are forced onto an identical path (§IV-A).
//
// The returned histogram maps collision multiplicity -> number of router
// pairs with that multiplicity.
func Collisions(t *topo.Topology, p traffic.Pattern) *stats.IntHistogram {
	counts := make(map[int64]int)
	for _, f := range p.Flows {
		rs := t.RouterOf(int(f.Src))
		rt := t.RouterOf(int(f.Dst))
		if rs == rt {
			continue // same-router flows never enter the network
		}
		counts[int64(rs)*int64(t.Nr())+int64(rt)]++
	}
	hist := stats.NewIntHistogram()
	for _, c := range counts {
		hist.Add(c)
	}
	return hist
}

// CollisionTakeaway reports the paper's §IV-A takeaway quantities: the
// fraction of router pairs with >= 4 collisions (the "<1%" claim for D>=2)
// and the maximum observed multiplicity.
func CollisionTakeaway(h *stats.IntHistogram) (fracAtLeast4 float64, max int) {
	fracAtLeast4 = h.FractionAtLeast(4)
	keys := h.Keys()
	if len(keys) > 0 {
		max = keys[len(keys)-1]
	}
	return fracAtLeast4, max
}
