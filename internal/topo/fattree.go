package topo

import (
	"fmt"

	"repro/internal/graph"
)

// FatTree3 builds a three-stage fat tree (three router layers, the paper's
// FT3) parametrized by the half-radix m and an integer oversubscription
// factor o:
//
//	pods:        2m, each with m edge and m aggregation routers
//	core:        m² routers in m groups of m
//	edge router: o·m endpoints + m uplinks (one to each agg in its pod)
//	agg router:  m downlinks + m uplinks (agg j -> core group j, all m)
//	N_r = 5m², N = 2m · m · o·m = 2·o·m³, D = 4.
//
// o=1 is the classic non-blocking k-ary fat tree with k = 2m (N = k³/4,
// N_r = 5k²/4, matching Table V); o=2 is the paper's 2×-oversubscribed
// variant used for cost-equalized comparisons (§VII-A1).
//
// Router numbering: pods first (edge then agg within each pod), core last.
func FatTree3(m, o int) (*Topology, error) {
	if m < 1 || o < 1 {
		return nil, fmt.Errorf("fattree3: invalid m=%d o=%d", m, o)
	}
	pods := 2 * m
	nr := pods*2*m + m*m
	g := graph.New(nr)
	var linkOf []LinkClass

	edgeID := func(pod, i int) int { return pod*2*m + i }
	aggID := func(pod, j int) int { return pod*2*m + m + j }
	coreID := func(grp, c int) int { return pods*2*m + grp*m + c }

	for pod := 0; pod < pods; pod++ {
		// Edge <-> agg: complete bipartite within the pod (copper).
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				g.AddEdge(edgeID(pod, i), aggID(pod, j))
				linkOf = append(linkOf, Copper)
			}
		}
		// Agg j <-> all cores in group j (fiber).
		for j := 0; j < m; j++ {
			for c := 0; c < m; c++ {
				g.AddEdge(aggID(pod, j), coreID(j, c))
				linkOf = append(linkOf, Fiber)
			}
		}
	}

	conc := make([]int, nr)
	for pod := 0; pod < pods; pod++ {
		for i := 0; i < m; i++ {
			conc[edgeID(pod, i)] = o * m
		}
	}
	t := &Topology{
		Name:         fmt.Sprintf("FT3(m=%d,o=%d)", m, o),
		Kind:         "FT3",
		G:            g,
		Conc:         conc,
		LinkOf:       linkOf,
		Diameter:     4,
		NominalRadix: m, // network radix of endpoint-hosting (edge) routers
	}
	return t.finish(), nil
}

// Complete builds the fully connected graph K_{k′+1} with p endpoints per
// router (default p = k′, the 2×-oversubscribed crossbar of Appendix A-G).
func Complete(kp, p int) (*Topology, error) {
	if kp < 1 {
		return nil, fmt.Errorf("complete: k'=%d must be >= 1", kp)
	}
	if p <= 0 {
		p = kp
	}
	nr := kp + 1
	g := graph.New(nr)
	var linkOf []LinkClass
	for i := 0; i < nr; i++ {
		for j := i + 1; j < nr; j++ {
			g.AddEdge(i, j)
			linkOf = append(linkOf, Fiber)
		}
	}
	conc := make([]int, nr)
	for i := range conc {
		conc[i] = p
	}
	t := &Topology{
		Name:         fmt.Sprintf("Clique(k'=%d,p=%d)", kp, p),
		Kind:         "Clique",
		G:            g,
		Conc:         conc,
		LinkOf:       linkOf,
		Diameter:     1,
		NominalRadix: kp,
	}
	return t.finish(), nil
}

// Star builds the single-crossbar baseline of Appendix D: one router with n
// endpoints and no router-router links. It is the TCP-effects calibration
// target (Fig 20/21).
func Star(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("star: n=%d must be >= 1", n)
	}
	g := graph.New(1)
	t := &Topology{
		Name:         fmt.Sprintf("Star(n=%d)", n),
		Kind:         "Star",
		G:            g,
		Conc:         []int{n},
		LinkOf:       nil,
		Diameter:     0,
		NominalRadix: 0,
	}
	return t.finish(), nil
}
