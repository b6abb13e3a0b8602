package layers

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// This file implements the path-overlap-minimizing layer construction of
// Listing 2 (§V-B3): instead of sampling edges at random, each sparsified
// layer is grown by placing, for the router pairs that so far received the
// fewest paths, a path whose length is one hop above minimal (the sweet
// spot identified by the §IV diversity analysis) and whose edges carry the
// lowest accumulated usage weight W. After a path (v1..vd) is placed, the
// listing's bookkeeping applies: chords (vi,vj), |i−j|>1, are excluded from
// further use in the layer so traffic between the path's interior pairs
// cannot shortcut, near pairs (j−i < Lmin) are removed from the candidate
// set, and W is increased along the path by i·(len−1−i), penalizing the
// middle of long paths where interference concentrates.

// MinInterferenceConfig parametrizes the Listing 2 construction.
type MinInterferenceConfig struct {
	// N is the number of layers (including the full layer 0).
	N int
	// ExtraHops is how many hops above the pair's minimal distance placed
	// paths should have (the paper prefers 1).
	ExtraHops int
	// MaxPathsPerLayer is the listing's constant M bounding paths placed
	// per layer (0 = N_r, a path per router on average).
	MaxPathsPerLayer int
	// Rho optionally caps each layer's edge count at ⌊Rho·|E|⌋, keeping
	// min-interference layers as sparse as the equivalent random layers.
	// Sparsity is what makes layer-local minimal routes globally
	// non-minimal (§V-B1) — without a budget a fully covered layer
	// converges to the whole graph and exposes no extra paths. 0 disables
	// the cap.
	Rho float64
}

// pairItem is a candidate router pair in the priority queue Q.
type pairItem struct {
	u, v  int32
	count int // paths already placed for this pair across layers
	tie   int64
	index int
}

type pairQueue []*pairItem

func (q pairQueue) Len() int { return len(q) }
func (q pairQueue) Less(i, j int) bool {
	if q[i].count != q[j].count {
		return q[i].count < q[j].count
	}
	return q[i].tie < q[j].tie
}
func (q pairQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *pairQueue) Push(x interface{}) {
	it := x.(*pairItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *pairQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// MinInterference builds a LayerSet per Listing 2.
func MinInterference(g *graph.Graph, cfg MinInterferenceConfig, rng *rand.Rand) (*LayerSet, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("layers: n=%d must be >= 1", cfg.N)
	}
	if cfg.ExtraHops < 0 {
		return nil, fmt.Errorf("layers: negative ExtraHops")
	}
	maxPaths := cfg.MaxPathsPerLayer
	if maxPaths <= 0 {
		maxPaths = g.N()
	}
	edgeBudget := g.M()
	if cfg.Rho > 0 && cfg.Rho < 1 {
		edgeBudget = int(cfg.Rho * float64(g.M()))
	}
	ls := &LayerSet{Base: g}
	ls.Layers = append(ls.Layers, fullLayer(g))

	nr := g.N()
	// Global edge usage weights W, persisted across layers.
	W := make([]float64, g.M())
	// Paths placed per ordered pair across layers (the queue priority).
	pathCount := make(map[int64]int)
	pairKey := func(u, v int32) int64 { return int64(u)*int64(nr) + int64(v) }

	// Minimal distances for per-pair length targets.
	dists := make([][]int32, nr)
	for v := 0; v < nr; v++ {
		dists[v] = g.BFS(v)
	}

	for li := 1; li < cfg.N; li++ {
		pi := graph.Permutation(rng, nr)
		mask := make([]bool, g.M())
		edgeCount := 0
		// Candidate pairs: π(u) < π(v) (the listing's acyclicity filter).
		q := make(pairQueue, 0, nr*(nr-1)/2)
		for u := int32(0); u < int32(nr); u++ {
			for v := int32(0); v < int32(nr); v++ {
				if u != v && pi[u] < pi[v] {
					q = append(q, &pairItem{u: u, v: v, count: pathCount[pairKey(u, v)], tie: rng.Int63()})
				}
			}
		}
		heap.Init(&q)
		// incidence: per-layer edge exclusions (chords of placed paths).
		excluded := make([]bool, g.M())
		placed := 0
		for q.Len() > 0 && placed < maxPaths && edgeCount < edgeBudget {
			it := heap.Pop(&q).(*pairItem)
			u, v := it.u, it.v
			d := dists[u][v]
			if d < 0 {
				continue
			}
			lmin := int(d) + cfg.ExtraHops
			lmax := lmin
			path := findPath(g, int(u), int(v), W, excluded, pi, lmin, lmax)
			if path == nil {
				// Fall back to a minimal-length path if no +ExtraHops path
				// respects the π-order and exclusions.
				path = findPath(g, int(u), int(v), W, excluded, pi, int(d), int(d))
				if path == nil {
					continue
				}
			}
			placed++
			pathCount[pairKey(u, v)]++
			for i := 0; i+1 < len(path); i++ {
				id := g.EdgeBetween(int(path[i]), int(path[i+1]))
				if !mask[id] {
					mask[id] = true
					edgeCount++
				}
				// W[vi][vi+1] += i·(len-1-i): middle edges of the path are
				// penalized most.
				W[id] += float64(i * (len(path) - 2 - i))
			}
			// Exclude chords of the placed path within this layer.
			for i := 0; i < len(path); i++ {
				for j := i + 2; j < len(path); j++ {
					if id := g.EdgeBetween(int(path[i]), int(path[j])); id >= 0 {
						excluded[id] = true
					}
				}
			}
		}
		// Layers must route (σ_i computes minimum paths between every two
		// routers within the layer, §V-C): if the placed paths leave the
		// layer disconnected, top it up with the least-used edges, chosen
		// by increasing W, until it spans the network.
		if !g.SubsetConnected(mask) {
			type cand struct {
				id int
				w  float64
			}
			cands := make([]cand, 0, g.M())
			for id := 0; id < g.M(); id++ {
				if !mask[id] {
					cands = append(cands, cand{id: id, w: W[id]})
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].w < cands[j].w })
			for _, c := range cands {
				mask[c.id] = true
				edgeCount++
				W[c.id]++ // account for the extra usage
				if g.SubsetConnected(mask) {
					break
				}
			}
		}
		ls.Layers = append(ls.Layers, Layer{Mask: mask, EdgeCount: edgeCount})
	}
	return ls, nil
}

// findPath implements the listing's find_path: the minimum-W-weight path
// from src to dst with hop count in [lmin, lmax], using only edges (a,b)
// with π(a) < π(b) and not excluded. The bounded-depth DFS prunes on the
// best weight found so far; lmax is at most diameter+ExtraHops so the
// enumeration stays shallow.
func findPath(g *graph.Graph, src, dst int, W []float64, excluded []bool, pi []int32, lmin, lmax int) []int32 {
	if lmax < 1 {
		return nil
	}
	var best []int32
	bestW := math.Inf(1)
	onPath := make([]bool, g.N())
	path := make([]int32, 0, lmax+1)
	path = append(path, int32(src))
	onPath[src] = true

	var dfs func(v int, depth int, weight float64)
	dfs = func(v int, depth int, weight float64) {
		if weight >= bestW {
			return
		}
		if v == dst {
			if depth >= lmin {
				best = append(best[:0], path...)
				bestW = weight
			}
			return
		}
		if depth == lmax {
			return
		}
		for _, h := range g.Neighbors(v) {
			if excluded[h.Edge] || onPath[h.To] {
				continue
			}
			if pi[v] >= pi[h.To] {
				continue // respect the layer's π-order (acyclicity)
			}
			path = append(path, h.To)
			onPath[h.To] = true
			dfs(int(h.To), depth+1, weight+W[h.Edge])
			onPath[h.To] = false
			path = path[:len(path)-1]
		}
	}
	dfs(src, 0, 0)
	if best == nil {
		return nil
	}
	return best
}
