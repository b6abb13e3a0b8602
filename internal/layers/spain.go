package layers

import (
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
)

// SPAIN (Mudigonda et al., NSDI'10), per Appendix C-B / Listing 4: for
// every destination router, compute k paths from every other router
// preferring link-disjointness (greedy: repeatedly take the lightest
// shortest path and penalize its edges by |E|); color the per-destination
// path set so that paths sharing a vertex with different next hops get
// different colors (the vlan-compatible predicate); each color class forms
// a candidate subgraph; finally, greedily merge subgraphs across
// destinations whenever the union stays acyclic, so every merged layer is a
// forest deployable as one VLAN.

// SPAINConfig parametrizes the construction.
type SPAINConfig struct {
	// K is the number of paths computed per (source, destination) pair.
	K int
	// MaxLayers caps the merged layer list at the n heaviest layers (plus
	// the implicit full layer 0) so that comparisons against FatPaths use
	// equally many layers (§VI-C). 0 keeps layer 0 alone.
	MaxLayers int
}

// SPAIN builds a LayerSet with the SPAIN algorithm. Layer 0 is the full
// graph (used as the shortest-path fallback, mirroring how SPAIN falls
// back to flooding/spanning-tree when VLAN paths are unavailable); layers
// 1.. are the merged VLAN forests.
func SPAIN(g *graph.Graph, cfg SPAINConfig, rng *rand.Rand) (*LayerSet, error) {
	if cfg.K < 1 {
		cfg.K = 2
	}
	nr := g.N()
	type pathT []int32
	// 1. Per-destination path computation (Listing 4, first stage).
	//    perDest[u] = all paths from any v to u.
	perDest := make([][]pathT, nr)
	w := make([]float64, g.M())
	weight := func(id int) float64 { return w[id] }
	var sc graph.DijkstraScratch
	for u := 0; u < nr; u++ {
		var paths []pathT
		for v := 0; v < nr; v++ {
			if v == u {
				continue
			}
			for i := range w {
				w[i] = 1 // base hop cost; disjointness penalty added below
			}
			first := len(paths) // paths[first:] are this pair's
			for k := 0; k < cfg.K; k++ {
				p, _ := g.DijkstraWith(&sc, v, u, weight, nil, nil)
				if p == nil || slices.ContainsFunc(paths[first:], func(q pathT) bool { return slices.Equal(p, q) }) {
					break // unreachable, or no further distinct path found
				}
				paths = append(paths, p)
				for i := 0; i+1 < len(p); i++ {
					id := g.EdgeBetween(int(p[i]), int(p[i+1]))
					w[id] += float64(g.M()) // prefer link-disjoint alternatives
				}
			}
		}
		perDest[u] = paths
	}

	// 2. Color each destination's paths: conflicting paths (sharing a
	//    vertex but diverging afterwards) get different colors.
	type subgraph struct {
		mask  []bool
		count int
	}
	var candidates []*subgraph
	next := make([]int32, nr) // vlanCompatible's scratch
	for i := range next {
		next[i] = -1
	}
	for u := 0; u < nr; u++ {
		paths := perDest[u]
		if len(paths) == 0 {
			continue
		}
		adj := make([][]int, len(paths))
		for i := 0; i < len(paths); i++ {
			for j := i + 1; j < len(paths); j++ {
				if !vlanCompatible(next, paths[i], paths[j]) {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		colors := greedyColoring(adj, rng)
		nColors := 0
		for _, c := range colors {
			if c+1 > nColors {
				nColors = c + 1
			}
		}
		subs := make([]*subgraph, nColors)
		for i := range subs {
			subs[i] = &subgraph{mask: make([]bool, g.M())}
		}
		for pi, p := range paths {
			sub := subs[colors[pi]]
			for i := 0; i+1 < len(p); i++ {
				id := g.EdgeBetween(int(p[i]), int(p[i+1]))
				if !sub.mask[id] {
					sub.mask[id] = true
					sub.count++
				}
			}
		}
		candidates = append(candidates, subs...)
	}

	// 3. Greedy merging in random order: union two subgraphs if acyclic.
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	var merged []*subgraph
	for _, c := range candidates {
		placed := false
		for _, m := range merged {
			if acyclicUnion(g, m.mask, c.mask) {
				for id, on := range c.mask {
					if on && !m.mask[id] {
						m.mask[id] = true
						m.count++
					}
				}
				placed = true
				break
			}
		}
		if !placed {
			merged = append(merged, &subgraph{mask: append([]bool(nil), c.mask...), count: c.count})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].count > merged[j].count })
	if len(merged) > cfg.MaxLayers {
		merged = merged[:cfg.MaxLayers]
	}
	ls := &LayerSet{Base: g}
	ls.Layers = append(ls.Layers, fullLayer(g))
	for _, m := range merged {
		ls.Layers = append(ls.Layers, Layer{Mask: m.mask, EdgeCount: m.count})
	}
	return ls, nil
}

// vlanCompatible implements the listing's predicate: whenever the two paths
// visit a common vertex they must continue to the same successor, so that
// per-destination forwarding within one VLAN is unambiguous. next is
// scratch indexed by vertex, all -1 on entry and on return.
func vlanCompatible(next, pi, pj []int32) bool {
	for i := 0; i+1 < len(pi); i++ {
		next[pi[i]] = pi[i+1]
	}
	ok := true
	for j := 0; j+1 < len(pj) && ok; j++ {
		n := next[pj[j]]
		ok = n < 0 || n == pj[j+1]
	}
	for i := 0; i+1 < len(pi); i++ {
		next[pi[i]] = -1
	}
	return ok
}

// greedyColoring colors a conflict graph given as adjacency lists,
// processing vertices in random order.
func greedyColoring(adj [][]int, rng *rand.Rand) []int {
	n := len(adj)
	order := rng.Perm(n)
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	used := map[int]bool{}
	for _, v := range order {
		clear(used)
		for _, u := range adj[v] {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// acyclicUnion reports whether the union of two edge masks is a forest.
func acyclicUnion(g *graph.Graph, a, b []bool) bool {
	parent := make([]int32, g.N())
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for id, e := range g.Edges() {
		if !a[id] && !b[id] {
			continue
		}
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			return false
		}
		parent[ru] = rv
	}
	return true
}
