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
	"repro/internal/obs"
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
// result. Layers that become disconnected are kept (forwarding marks the
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

// Forwarding is the deployed view of the routing core (internal/routing):
// per-layer destination-based multi-next-hop tables, the σ_i functions of
// §V-A deployed as forwarding tables (Listing 3). Where the paper's
// listing freezes one random tie per (layer, src, dst), this view keeps
// the full within-layer ECMP candidate set (§V-C) and exposes both a
// deterministic representative hop (Next) and the whole set (Candidates).
// A Next of -1 means the destination is unreachable within the layer
// (possible for sparse SPAIN/min-interference layers); callers fall back
// to layer 0.
type Forwarding struct {
	Nr  int
	eng *routing.Engine
}

// NewForwarding equips a layer set with routing tables. Tables materialize
// lazily per destination; call BuildAll to precompute everything in
// parallel. seed drives the deterministic ECMP tie-breaking, so two
// Forwardings over identical layer sets and seeds are byte-identical
// regardless of build order or worker count.
func NewForwarding(ls *LayerSet, seed int64) *Forwarding {
	masks := make([][]bool, ls.N())
	for i, l := range ls.Layers {
		if l.EdgeCount == ls.Base.M() {
			masks[i] = nil // full layer: let the engine skip mask checks
			continue
		}
		masks[i] = l.Mask
	}
	return &Forwarding{Nr: ls.Base.N(), eng: routing.NewEngine(ls.Base, masks, seed)}
}

// Engine exposes the underlying routing engine (candidate sets, route
// counts, materialization stats).
func (f *Forwarding) Engine() *routing.Engine { return f.eng }

// SetMetrics attaches routing-core telemetry to the underlying engine
// (nil disables). Repaired views from WithoutEdges inherit the bundle.
func (f *Forwarding) SetMetrics(m *obs.RoutingMetrics) { f.eng.SetMetrics(m) }

// NumLayers returns the number of layers with tables.
func (f *Forwarding) NumLayers() int { return f.eng.NumLayers() }

// BuildAll eagerly materializes every (layer, destination) table on up to
// `workers` goroutines (0 = all cores).
func (f *Forwarding) BuildAll(workers int) { f.eng.BuildAll(workers) }

// Next returns the representative next-hop router from src toward dst
// within the given layer, or -1 if unreachable in that layer. Ties among
// ECMP candidates break deterministically by seed folding.
func (f *Forwarding) Next(layer, src, dst int) int32 {
	return f.eng.Next(layer, src, dst)
}

// Candidates returns every ECMP next hop from src toward dst within the
// layer (the set the flowlet balancer hashes over). The slice aliases the
// table and must not be modified.
func (f *Forwarding) Candidates(layer, src, dst int) []int32 {
	return f.eng.Candidates(layer, src, dst)
}

// Reachable reports whether dst is reachable from src within the layer.
func (f *Forwarding) Reachable(layer, src, dst int) bool {
	return f.eng.Reachable(layer, src, dst)
}

// PathLen returns the hop count of the layer's minimal route from src to
// dst, or -1 on a routing hole. Minimal routing makes this the BFS
// distance, read straight from the table in O(1) instead of walking the
// forwarding function.
func (f *Forwarding) PathLen(layer, src, dst int) int {
	if src == dst {
		return 0
	}
	return int(f.eng.Dist(layer, src, dst))
}

// Route follows the representative next hops (Next) from src to dst within
// the layer and returns the router sequence, both ends included. It gives
// up with nil on a routing hole (sparse or repaired layers) or after Nr
// hops.
func (f *Forwarding) Route(layer, src, dst int) []int32 {
	path := []int32{int32(src)}
	v := src
	for v != dst {
		nxt := f.Next(layer, v, dst)
		if nxt < 0 || len(path) > f.Nr {
			return nil
		}
		path = append(path, nxt)
		v = int(nxt)
	}
	return path
}

// WithoutEdges returns a repaired view with the given base edges removed
// from every layer — the §V-G "major topology update" path. Invalidation
// is incremental and per destination: tables whose minimal-path DAG never
// used a removed edge are shared with the parent, the rest rebuild lazily.
func (f *Forwarding) WithoutEdges(failed []int) *Forwarding {
	return &Forwarding{Nr: f.Nr, eng: f.eng.WithoutEdges(failed)}
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
func Summarize(ls *LayerSet, f *Forwarding, samples int, rng *rand.Rand) Stats {
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
		c := f.eng.RouteCounts(l, t)
		countMemo[key] = c
		return c
	}
	for i := 0; i < samples; i++ {
		s, t := graph.SampleDistinctPair(rng, ls.Base.N())
		type route struct {
			first int32
			len   int
		}
		distinct := map[route]bool{}
		for l := 0; l < f.NumLayers(); l++ {
			pl := f.PathLen(l, s, t)
			if pl < 0 {
				continue
			}
			for _, nh := range f.Candidates(l, s, t) {
				distinct[route{nh, pl}] = true
			}
			totalRoutes += float64(routeCounts(l, t)[s])
		}
		totalDistinct += float64(len(distinct))
	}
	st.MeanDistinctPaths = totalDistinct / float64(samples)
	st.MeanMinimalRoutes = totalRoutes / float64(samples)
	return st
}
