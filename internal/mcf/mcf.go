// Package mcf computes the maximum achievable throughput (MAT) of §VI: the
// largest T such that a feasible multi-commodity flow routes T(s,t)·T
// between all communicating router pairs. Three engines are provided:
//
//   - GeneralMAT: the unrestricted MCF LP of Eq. (1)–(4), exact via simplex
//     (tiny instances only; it has k·2M variables).
//   - PathMAT: the layered/path-restricted LP of Eq. (5)–(9). With
//     destination-based per-layer forwarding, each commodity's flow in a
//     layer follows a single fixed path, so "no flow leaks between layers"
//     (Eq. 7) reduces to per-path flow variables — one per (commodity,
//     layer) — which keeps the LP small and exact.
//   - PathMATApprox: a Garg–Könemann/Fleischer multiplicative-weights
//     approximation of the same path-restricted program for instances too
//     large for the dense simplex.
package mcf

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Commodity is a router-level traffic demand.
type Commodity struct {
	Src, Dst int
	Demand   float64
}

// CommoditiesFromPattern aggregates an endpoint-level pattern into
// router-level commodities: the demand between a router pair is the number
// of endpoint flows mapped onto it.
func CommoditiesFromPattern(t *topo.Topology, p traffic.Pattern) []Commodity {
	agg := make(map[[2]int]float64)
	for _, f := range p.Flows {
		rs, rt := t.RouterOf(int(f.Src)), t.RouterOf(int(f.Dst))
		if rs != rt {
			agg[[2]int{rs, rt}]++
		}
	}
	out := make([]Commodity, 0, len(agg))
	for pr, d := range agg {
		out = append(out, Commodity{Src: pr[0], Dst: pr[1], Demand: d})
	}
	// Canonical order: map iteration order would otherwise leak into the
	// MAT solvers (commodity processing order in the approximate scheme,
	// row order in the simplex) and make results vary run to run.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// pathArcs converts a vertex path to its directed arc list.
func pathArcs(g *graph.Graph, p []int32) []int {
	arcs := make([]int, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		a := g.Arc(int(p[i]), int(p[i+1]))
		if a < 0 {
			panic(fmt.Sprintf("mcf: path uses non-edge (%d,%d)", p[i], p[i+1]))
		}
		arcs = append(arcs, a)
	}
	return arcs
}

// PathSets holds, per commodity, the candidate paths its flow may split
// across (one per layer under FatPaths; k paths under k-shortest-paths).
type PathSets struct {
	G     *graph.Graph
	Comms []Commodity
	Paths [][][]int32 // Paths[i] = candidate vertex paths of commodity i
}

// FromForwarding builds path sets from per-layer forwarding tables:
// commodity i may use the (deduplicated) per-layer forwarding paths.
func FromForwarding(g *graph.Graph, f *routing.Engine, comms []Commodity) PathSets {
	ps := PathSets{G: g, Comms: comms, Paths: make([][][]int32, len(comms))}
	for i, c := range comms {
		var uniq [][]int32
		for _, p := range f.LayerPaths(c.Src, c.Dst) {
			if !slices.ContainsFunc(uniq, func(q []int32) bool { return slices.Equal(p, q) }) {
				uniq = append(uniq, p)
			}
		}
		ps.Paths[i] = uniq
	}
	return ps
}

// FromKShortest builds path sets from Yen's k shortest paths per commodity,
// keeping only paths of minimal length: the paper's k-shortest-paths
// baseline "spreads traffic over multiple shortest paths (if available)"
// (§VI) — on low-diameter topologies most pairs have just one, which is
// exactly the weakness Fig 9 exposes.
func FromKShortest(g *graph.Graph, comms []Commodity, k int) PathSets {
	ps := PathSets{G: g, Comms: comms, Paths: make([][][]int32, len(comms))}
	for i, c := range comms {
		all := g.YenKShortest(c.Src, c.Dst, k, graph.Unit)
		var minimal [][]int32
		for _, p := range all {
			if len(p) == len(all[0]) {
				minimal = append(minimal, p)
			}
		}
		ps.Paths[i] = minimal
	}
	return ps
}

// PathMAT solves the path-restricted max-concurrent-flow LP exactly:
// maximize T subject to Σ_p x_{i,p} = d_i·T (Eq. 5/8 as an equality) and
// per-arc capacity Σ x ≤ 1 (Eq. 6). Every arc has capacity 1, the
// normalized link rate; T is linear in it. Eq. 7 (no inter-layer leaking)
// and Eq. 9 (no backflow into the source) hold by construction because
// every variable is a whole fixed path within one layer.
func PathMAT(ps PathSets) (float64, error) {
	p, err := PathLP(ps)
	if err != nil {
		return 0, err
	}
	_, obj, err := p.Solve()
	return obj, err
}

// PathLP builds PathMAT's linear program: one variable per candidate path,
// then T; one equality row per commodity, then one capacity row per used arc
// in arc order.
func PathLP(ps PathSets) (*lp.Problem, error) {
	nPathVars := 0
	for i := range ps.Paths {
		if len(ps.Paths[i]) == 0 {
			return nil, fmt.Errorf("mcf: commodity %d (%d->%d) has no candidate paths",
				i, ps.Comms[i].Src, ps.Comms[i].Dst)
		}
		nPathVars += len(ps.Paths[i])
	}
	p := lp.New(nPathVars + 1)
	tVar := nPathVars
	p.SetObjective(tVar, 1)
	// Per-arc usage lists.
	arcUsers := make(map[int][]int) // arc -> variable indices
	varBase := 0
	for i, paths := range ps.Paths {
		idxs := make([]int, 0, len(paths)+1)
		coeffs := make([]float64, 0, len(paths)+1)
		for pi, path := range paths {
			v := varBase + pi
			idxs = append(idxs, v)
			coeffs = append(coeffs, 1)
			for _, a := range pathArcs(ps.G, path) {
				arcUsers[a] = append(arcUsers[a], v)
			}
		}
		// Σ_p x_{i,p} - d_i·T = 0
		idxs = append(idxs, tVar)
		coeffs = append(coeffs, -ps.Comms[i].Demand)
		p.AddConstraint(idxs, coeffs, lp.EQ, 0)
		varBase += len(paths)
	}
	// Deterministic row order: sorted arcs, not map iteration order, so the
	// simplex sees the identical tableau every run.
	arcs := make([]int, 0, len(arcUsers))
	for a := range arcUsers {
		arcs = append(arcs, a)
	}
	sort.Ints(arcs)
	for _, a := range arcs {
		users := arcUsers[a]
		coeffs := make([]float64, len(users))
		for i := range coeffs {
			coeffs[i] = 1
		}
		p.AddConstraint(users, coeffs, lp.LE, 1)
	}
	return p, nil
}

// PathMATApprox approximates the same program with the Garg–Könemann /
// Fleischer multiplicative-weights scheme at accuracy eps (throughput is
// within a (1−eps)³ factor of optimal). It never builds a tableau, so it
// scales to thousands of commodities. Arc capacities are 1, as in PathMAT.
func PathMATApprox(ps PathSets, eps float64) (float64, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("mcf: eps=%f out of (0,1)", eps)
	}
	type pref struct {
		arcs []int
	}
	prepped := make([][]pref, len(ps.Paths))
	numArcs := 2 * ps.G.M()
	for i, paths := range ps.Paths {
		if len(paths) == 0 {
			return 0, fmt.Errorf("mcf: commodity %d has no candidate paths", i)
		}
		prepped[i] = make([]pref, len(paths))
		for pi, path := range paths {
			prepped[i][pi] = pref{arcs: pathArcs(ps.G, path)}
		}
	}
	m := float64(numArcs)
	delta := math.Pow(m/(1-eps), -1/eps)
	length := make([]float64, numArcs)
	for a := range length {
		length[a] = delta
	}
	sumL := func() float64 {
		var s float64
		for _, l := range length {
			s += l
		}
		return s
	}
	D := sumL()
	phases := 0
	const maxPhases = 200000 // runaway guard only; D >= 1 terminates normally
	for D < 1 && phases < maxPhases {
		for i := range prepped {
			remaining := ps.Comms[i].Demand
			for remaining > 1e-12 && D < 1 {
				// Cheapest candidate path under current lengths.
				best, bestLen := -1, math.Inf(1)
				for pi, pr := range prepped[i] {
					var l float64
					for _, a := range pr.arcs {
						l += length[a]
					}
					if l < bestLen {
						bestLen = l
						best = pi
					}
				}
				f := min(remaining, 1)
				remaining -= f
				for _, a := range prepped[i][best].arcs {
					old := length[a]
					length[a] = old * (1 + eps*f)
					D += length[a] - old
				}
			}
			if D >= 1 {
				// Phase incomplete: stop without counting it.
				return float64(phases) / (math.Log(1/delta) / math.Log(1+eps)), nil
			}
		}
		phases++
		D = sumL()
	}
	return float64(phases) / (math.Log(1/delta) / math.Log(1+eps)), nil
}

// GeneralMAT solves the unrestricted MCF LP of Eq. (1)–(4) exactly. Every
// commodity may use any arc. Only suitable for tiny instances: the LP has
// k·2M + 1 variables. Arc capacities are 1, as in PathMAT.
func GeneralMAT(g *graph.Graph, comms []Commodity) (float64, error) {
	k := len(comms)
	numArcs := 2 * g.M()
	// Variables: f[i*numArcs + a] plus T at the end.
	p := lp.New(k*numArcs + 1)
	tVar := k * numArcs
	p.SetObjective(tVar, 1)
	// Capacity per arc: Σ_i f_{i,a} <= 1 (Eq. 1, directed).
	for a := 0; a < numArcs; a++ {
		idxs := make([]int, k)
		coeffs := make([]float64, k)
		for i := 0; i < k; i++ {
			idxs[i] = i*numArcs + a
			coeffs[i] = 1
		}
		p.AddConstraint(idxs, coeffs, lp.LE, 1)
	}
	// Flow conservation (Eq. 2) and source balance (Eq. 3).
	for i, c := range comms {
		for u := 0; u < g.N(); u++ {
			if u == c.Dst {
				continue
			}
			var idxs []int
			var coeffs []float64
			for _, h := range g.Neighbors(u) {
				out := g.EdgeArc(int(h.Edge), u)
				in := out ^ 1
				idxs = append(idxs, i*numArcs+out, i*numArcs+in)
				coeffs = append(coeffs, 1, -1)
			}
			if u == c.Src {
				// Net outflow = d_i · T.
				idxs = append(idxs, tVar)
				coeffs = append(coeffs, -c.Demand)
				p.AddConstraint(idxs, coeffs, lp.EQ, 0)
			} else {
				p.AddConstraint(idxs, coeffs, lp.EQ, 0)
			}
		}
	}
	_, obj, err := p.Solve()
	if err != nil {
		return 0, err
	}
	return obj, nil
}
