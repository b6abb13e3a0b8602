// Package layers implements FatPaths layered routing (§V of the paper):
// dividing the links of a topology into (not necessarily disjoint) subsets
// called layers, routing minimally within each layer so that layer-local
// minimal paths are non-minimal globally, and populating per-layer
// destination-based forwarding tables. It also implements the layered
// comparison baselines of §VI / Appendix C: SPAIN and PAST (the
// k-shortest-paths baseline is path-based and lives in internal/mcf).
package layers

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Layer is one routing layer: a subset of the base graph's links.
type Layer struct {
	// Mask[id] reports whether base edge id belongs to the layer.
	Mask []bool
	// EdgeCount is the number of enabled edges.
	EdgeCount int
}

// LayerSet is an ordered collection of layers over one base graph.
// Layers[0] always contains every link (the minimal-path layer σ1 of
// §V-B); the remaining layers are sparsified.
type LayerSet struct {
	Base   *graph.Graph
	Layers []Layer
	// Scheme records how the set was constructed ("random", "min-interference",
	// "spain", "past").
	Scheme string
	// Rho is the fraction of edges kept per sparsified layer (0 when the
	// scheme does not use ρ).
	Rho float64
}

// N returns the number of layers n.
func (ls *LayerSet) N() int { return len(ls.Layers) }

// fullLayer returns a layer containing all edges of g.
func fullLayer(g *graph.Graph) Layer {
	mask := make([]bool, g.M())
	for i := range mask {
		mask[i] = true
	}
	return Layer{Mask: mask, EdgeCount: g.M()}
}

// Random builds n layers by the random uniform edge sampling of Listing 1:
// layer 1 keeps all links; each of the remaining n−1 layers keeps each edge
// independently with probability ρ (using the canonical orientation given
// by a fresh random vertex permutation, exactly as the listing's
// π(u) < π(v) convention). A sample that disconnects the network is
// rejected and redrawn, per §V-B2.
func Random(g *graph.Graph, n int, rho float64, rng *rand.Rand) (*LayerSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("layers: n=%d must be >= 1", n)
	}
	if rho <= 0 || rho > 1 {
		return nil, fmt.Errorf("layers: rho=%f must be in (0,1]", rho)
	}
	ls := &LayerSet{Base: g, Scheme: "random", Rho: rho}
	ls.Layers = append(ls.Layers, fullLayer(g))
	const maxAttempts = 200
	for li := 1; li < n; li++ {
		ok := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			// Listing 1 samples each edge once in the canonical orientation
			// given by a random vertex permutation π (the π(u) < π(v)
			// condition only provides acyclicity for directed deployments;
			// full-duplex links make the orientation immaterial here).
			mask := make([]bool, g.M())
			count := 0
			for id := range g.Edges() {
				if rng.Float64() < rho {
					mask[id] = true
					count++
				}
			}
			if !g.SubsetConnected(mask) {
				continue
			}
			ls.Layers = append(ls.Layers, Layer{Mask: mask, EdgeCount: count})
			ok = true
			break
		}
		if !ok {
			return nil, fmt.Errorf("layers: could not sample a connected layer with rho=%f after %d attempts", rho, maxAttempts)
		}
	}
	return ls, nil
}

// WithoutEdges returns a copy of the layer set with the given base edges
// removed from every layer — the "recompute layers" repair path for major
// topology updates of §V-G. The caller rebuilds forwarding tables on the
// result (routing.Engine.WithoutEdges is the incremental form of the same
// repair). Layers that become disconnected are kept (forwarding marks the
// unreachable pairs; the flowlet balancer avoids them).
func (ls *LayerSet) WithoutEdges(failed []int) *LayerSet {
	dead := make([]bool, ls.Base.M())
	for _, id := range failed {
		dead[id] = true
	}
	out := &LayerSet{Base: ls.Base, Scheme: ls.Scheme + "+repaired", Rho: ls.Rho}
	for _, l := range ls.Layers {
		mask := make([]bool, len(l.Mask))
		count := 0
		for id, on := range l.Mask {
			if on && !dead[id] {
				mask[id] = true
				count++
			}
		}
		out.Layers = append(out.Layers, Layer{Mask: mask, EdgeCount: count})
	}
	return out
}

// Masks returns the per-layer edge masks in the form routing.NewEngine
// takes them: nil for a layer that keeps every link (the engine then skips
// mask checks), the layer's own mask otherwise.
func (ls *LayerSet) Masks() [][]bool {
	masks := make([][]bool, ls.N())
	for i, l := range ls.Layers {
		if l.EdgeCount < ls.Base.M() {
			masks[i] = l.Mask
		}
	}
	return masks
}

// Stats summarizes a layer set: edges per layer and two deployed
// path-diversity measures read straight from the routing tables.
type Stats struct {
	EdgesPerLayer []int
	// MeanDistinctPaths is the average (over sampled pairs) number of
	// distinct (first-hop, length) routes across layers, counting every
	// ECMP candidate — the choices the flowlet balancer actually has.
	MeanDistinctPaths float64
	// MeanMinimalRoutes is the average (over sampled pairs) total number
	// of distinct within-layer minimal routes summed across layers,
	// computed by DP over the tables' candidate DAGs.
	MeanMinimalRoutes float64
}

// Summarize computes layer statistics using sampled router pairs. All path
// statistics come from the shared routing tables (no BFS re-walks).
func Summarize(ls *LayerSet, f *routing.Engine, samples int, rng *rand.Rand) Stats {
	st := Stats{}
	for _, l := range ls.Layers {
		st.EdgesPerLayer = append(st.EdgesPerLayer, l.EdgeCount)
	}
	if samples <= 0 || ls.Base.N() < 2 {
		return st
	}
	totalDistinct := 0.0
	totalRoutes := 0.0
	// The route-count DP is per (layer, destination); sampled destinations
	// repeat, so memoize the whole counts vector rather than re-running it.
	countMemo := map[[2]int][]int64{}
	routeCounts := func(l, t int) []int64 {
		key := [2]int{l, t}
		if c, ok := countMemo[key]; ok {
			return c
		}
		c := f.RouteCounts(l, t)
		countMemo[key] = c
		return c
	}
	for i := 0; i < samples; i++ {
		s, t := graph.SampleDistinctPair(rng, ls.Base.N())
		totalDistinct += float64(f.DistinctRoutes(s, t))
		for l := 0; l < f.NumLayers(); l++ {
			totalRoutes += float64(routeCounts(l, t)[s]) // 0 when unreachable
		}
	}
	st.MeanDistinctPaths = totalDistinct / float64(samples)
	st.MeanMinimalRoutes = totalRoutes / float64(samples)
	return st
}
