package topo

import (
	"fmt"

	"repro/internal/graph"
)

// HyperX (Ahn et al., SC'09), the "regular" variant used by FatPaths: an
// L-dimensional Hamming graph with S routers per dimension and uniform
// relative link capacity K=1. Routers are L-tuples over [S]; two routers are
// adjacent iff they differ in exactly one coordinate (each 1-D row is a
// clique). k′ = L(S−1), D = L, N_r = S^L. FatPaths attaches p = ⌈k′/L⌉
// endpoints (2×-oversubscribed; Appendix A-E).
//
// Cost classification: edges along dimension 0 are treated as short
// (copper, "same 1D row" in the physical layout), higher dimensions as long
// (fiber). This mirrors the row/plane structure discussed in §IV-C2.
func HyperX(L, S, p int) (*Topology, error) {
	if L < 1 || S < 2 {
		return nil, fmt.Errorf("hyperx: invalid L=%d S=%d", L, S)
	}
	nr := 1
	for i := 0; i < L; i++ {
		nr *= S
		if nr > 1<<22 {
			return nil, fmt.Errorf("hyperx: S^L too large")
		}
	}
	kp := L * (S - 1)
	if p <= 0 {
		p = ceilDiv(kp, L)
	}
	g := graph.New(nr)
	var linkOf []LinkClass
	// stride[d] = S^d; coordinate d of router r is (r / stride[d]) % S.
	stride := make([]int, L)
	stride[0] = 1
	for d := 1; d < L; d++ {
		stride[d] = stride[d-1] * S
	}
	for r := 0; r < nr; r++ {
		for d := 0; d < L; d++ {
			cd := (r / stride[d]) % S
			for c2 := cd + 1; c2 < S; c2++ {
				r2 := r + (c2-cd)*stride[d]
				g.AddEdge(r, r2)
				if d == 0 {
					linkOf = append(linkOf, Copper)
				} else {
					linkOf = append(linkOf, Fiber)
				}
			}
		}
	}
	if ok, d := g.IsRegular(); !ok || d != kp {
		return nil, fmt.Errorf("hyperx: construction bug (irregular)")
	}
	conc := make([]int, nr)
	for i := range conc {
		conc[i] = p
	}
	t := &Topology{
		Name:         fmt.Sprintf("HX(L=%d,S=%d,p=%d)", L, S, p),
		Kind:         "HX",
		G:            g,
		Conc:         conc,
		LinkOf:       linkOf,
		Diameter:     L,
		NominalRadix: kp,
	}
	return t.finish(), nil
}
