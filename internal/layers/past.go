package layers

import (
	"math/rand"

	"repro/internal/graph"
)

// PAST (Stephens et al., CoNEXT'12), per Appendix C-C / Listing 5: one
// spanning tree per address, built by BFS with random tie-breaking; the
// non-minimal variant (inspired by Valiant load balancing) roots the tree
// at a random intermediate switch rather than at the destination. When
// integrated into the layered-routing comparison, the number of trees is
// capped at n so all schemes use equally many layers (§VI-C).

// PASTVariant selects tree rooting.
type PASTVariant int

const (
	// PASTBaseline roots each spanning tree at a destination switch
	// chosen round-robin (the per-address tree of the original scheme).
	PASTBaseline PASTVariant = iota
	// PASTNonMinimal roots each tree at a random switch (the Valiant-
	// inspired variant of Listing 5).
	PASTNonMinimal
)

// PAST builds n−1 spanning-tree layers plus the full layer 0.
func PAST(g *graph.Graph, n int, variant PASTVariant, rng *rand.Rand) (*LayerSet, error) {
	ls := &LayerSet{Base: g}
	ls.Layers = append(ls.Layers, fullLayer(g))
	for li := 1; li < n; li++ {
		var root int
		switch variant {
		case PASTNonMinimal:
			root = rng.Intn(g.N())
		default:
			root = (li - 1) % g.N()
		}
		mask := spanningTreeBFS(g, root, rng)
		count := 0
		for _, on := range mask {
			if on {
				count++
			}
		}
		ls.Layers = append(ls.Layers, Layer{Mask: mask, EdgeCount: count})
	}
	return ls, nil
}

// spanningTreeBFS builds a BFS spanning tree from root with random
// tie-breaking: the neighbor exploration order at each vertex is shuffled
// so that repeated calls distribute tree edges over physical links (the
// load-spreading goal of PAST).
func spanningTreeBFS(g *graph.Graph, root int, rng *rand.Rand) []bool {
	mask := make([]bool, g.M())
	visited := make([]bool, g.N())
	visited[root] = true
	queue := []int32{int32(root)}
	order := make([]graph.Half, 0, 64)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		order = append(order[:0], g.Neighbors(int(v))...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, h := range order {
			if !visited[h.To] {
				visited[h.To] = true
				mask[h.Edge] = true
				queue = append(queue, h.To)
			}
		}
	}
	return mask
}
