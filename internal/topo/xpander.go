package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Xpander (Valadarsky et al., HotNets'15): an ℓ-lift of the complete graph
// K_{k′+1}. The lift replaces every vertex of K_{k′+1} by a "metanode" of ℓ
// copies and every edge (u,v) by a random perfect matching between the
// copies of u and the copies of v, yielding a k′-regular expander with
// N_r = ℓ(k′+1) routers. FatPaths uses ℓ = k′ and p = ⌈k′/2⌉ (Appendix A-D).
func Xpander(kp, lift, p int, rng *rand.Rand) (*Topology, error) {
	if kp < 2 {
		return nil, fmt.Errorf("xpander: k'=%d must be >= 2", kp)
	}
	if lift < 1 {
		return nil, fmt.Errorf("xpander: lift=%d must be >= 1", lift)
	}
	if p <= 0 {
		p = ceilDiv(kp, 2)
	}
	base := kp + 1
	nr := lift * base
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g := graph.New(nr)
		id := func(meta, copy int) int { return meta*lift + copy }
		for u := 0; u < base; u++ {
			for v := u + 1; v < base; v++ {
				pi := graph.Permutation(rng, lift)
				for i := 0; i < lift; i++ {
					g.AddEdge(id(u, i), id(v, int(pi[i])))
				}
			}
		}
		if !g.Connected() {
			continue
		}
		if ok, d := g.IsRegular(); !ok || d != kp {
			return nil, fmt.Errorf("xpander: lift produced irregular graph (bug)")
		}
		conc := make([]int, nr)
		for i := range conc {
			conc[i] = p
		}
		linkOf := make([]LinkClass, g.M())
		for i := range linkOf {
			linkOf[i] = Fiber
		}
		t := &Topology{
			Name:         fmt.Sprintf("XP(k'=%d,l=%d,p=%d)", kp, lift, p),
			Kind:         "XP",
			G:            g,
			Conc:         conc,
			LinkOf:       linkOf,
			Diameter:     -1, // <= 3 w.h.p. for the used parameters
			NominalRadix: kp,
		}
		return t.finish(), nil
	}
	return nil, fmt.Errorf("xpander: failed to build connected lift after %d attempts", maxAttempts)
}
