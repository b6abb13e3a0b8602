package topo

import (
	"fmt"

	"repro/internal/graph"
)

// Dragonfly (Kim et al., ISCA'08), "balanced" variant of §3.1 of that paper
// as used by FatPaths (Table V): a single parameter p determines
//
//	a = 2p   routers per group (fully connected locally),
//	h = p    global channels per router,
//	g = a·h + 1 = 2p² + 1 groups (fully connected group graph, one link
//	         per group pair),
//	N_r = a·g = 4p³ + 2p routers, k′ = a − 1 + h = 3p − 1, D = 3.
//
// Global link arrangement is the standard "absolute" one: group i reserves
// slot s = (j − i − 1) mod g for its link to group j; slot s belongs to
// router s/h, port s mod h.
func Dragonfly(p int) (*Topology, error) {
	if p < 1 {
		return nil, fmt.Errorf("dragonfly: p=%d must be >= 1", p)
	}
	a := 2 * p
	h := p
	ng := a*h + 1
	nr := a * ng
	g := graph.New(nr)
	var linkOf []LinkClass
	id := func(grp, r int) int { return grp*a + r }

	// Local links: clique within each group (copper).
	for grp := 0; grp < ng; grp++ {
		for r1 := 0; r1 < a; r1++ {
			for r2 := r1 + 1; r2 < a; r2++ {
				g.AddEdge(id(grp, r1), id(grp, r2))
				linkOf = append(linkOf, Copper)
			}
		}
	}
	// Global links: one per group pair (fiber).
	for i := 0; i < ng; i++ {
		for j := i + 1; j < ng; j++ {
			si := mod(j-i-1, ng)
			sj := mod(i-j-1, ng)
			g.AddEdge(id(i, si/h), id(j, sj/h))
			linkOf = append(linkOf, Fiber)
		}
	}

	if ok, d := g.IsRegular(); !ok || d != 3*p-1 {
		return nil, fmt.Errorf("dragonfly: p=%d produced irregular graph (construction bug)", p)
	}
	conc := make([]int, nr)
	for i := range conc {
		conc[i] = p
	}
	t := &Topology{
		Name:         fmt.Sprintf("DF(p=%d)", p),
		Kind:         "DF",
		G:            g,
		Conc:         conc,
		LinkOf:       linkOf,
		Diameter:     3,
		NominalRadix: 3*p - 1,
	}
	return t.finish(), nil
}
