package graph

// This file implements the length-limited disjoint-path machinery behind the
// paper's Count of Disjoint Paths (CDP) metric, §IV-B1. The paper derives
// c_l(A,B) — the smallest number of edges whose removal disconnects every
// path of at most l hops from router set A to router set B — with "a variant
// of the Ford-Fulkerson algorithm (with various pruning heuristics) that
// removes edges in paths between designated routers ... and verifies whether
// h_l(A) ∩ B = ∅". We reproduce exactly that scheme: repeatedly find a
// shortest (≤ l hop) path from A to B with BFS, delete its edges, and count
// iterations. Each iteration yields one edge-disjoint path, and when the
// loop ends no ≤l-hop path remains, so the removed-path count is both the
// number of edge-disjoint ≤l-hop paths found and a feasible bounded-length
// cut. (Exact bounded-length min-cut is NP-hard for l ≥ 4; the greedy
// shortest-first strategy is the paper's pruning heuristic.)

// DisjointPathsOpts configures DisjointPathsBounded.
type DisjointPathsOpts struct {
	// MaxLen is the hop bound l. Zero or negative means unbounded.
	MaxLen int
	// MaxCount stops counting once this many disjoint paths were found
	// (0 = unlimited). Useful when only "at least 3" matters.
	MaxCount int
}

// DisjointPathsBounded returns the greedy count of pairwise edge-disjoint
// paths of at most opts.MaxLen hops from any vertex in A to any vertex in B,
// i.e. the paper's c_l(A,B). Vertices present in both A and B contribute no
// zero-length paths; A and B are treated as disjoint terminals (the paper
// always uses disjoint router sets).
func (g *Graph) DisjointPathsBounded(A, B []int, opts DisjointPathsOpts) int {
	if len(A) == 0 || len(B) == 0 {
		return 0
	}
	enabled := make([]bool, g.M())
	for i := range enabled {
		enabled[i] = true
	}
	inB := make([]bool, g.n)
	for _, b := range B {
		inB[b] = true
	}
	inA := make([]bool, g.n)
	for _, a := range A {
		inA[a] = true
	}

	count := 0
	// Reusable BFS state.
	dist := make([]int32, g.n)
	parentEdge := make([]int32, g.n)
	parentVert := make([]int32, g.n)
	queue := make([]int32, 0, g.n)

	for {
		// Multi-source BFS from A, stopping at the first vertex of B.
		for i := range dist {
			dist[i] = Unreachable
		}
		queue = queue[:0]
		for _, a := range A {
			if dist[a] == Unreachable {
				dist[a] = 0
				parentEdge[a] = -1
				parentVert[a] = -1
				queue = append(queue, int32(a))
			}
		}
		hit := int32(-1)
	search:
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			dv := dist[v]
			if opts.MaxLen > 0 && int(dv) >= opts.MaxLen {
				continue
			}
			for _, h := range g.adj[v] {
				if !enabled[h.Edge] || dist[h.To] != Unreachable {
					continue
				}
				dist[h.To] = dv + 1
				parentEdge[h.To] = h.Edge
				parentVert[h.To] = v
				if inB[h.To] && !inA[h.To] {
					hit = h.To
					break search
				}
				queue = append(queue, h.To)
			}
		}
		if hit < 0 {
			return count
		}
		// Remove the edges of the found path.
		for v := hit; parentEdge[v] >= 0; v = parentVert[v] {
			enabled[parentEdge[v]] = false
		}
		count++
		if opts.MaxCount > 0 && count >= opts.MaxCount {
			return count
		}
	}
}

// EdgeConnectivityPair returns the exact (unbounded-length) edge
// connectivity between s and t via Ford–Fulkerson augmentation on the
// unit-capacity bidirected graph. Unlike the greedy bounded variant this is
// exact: augmenting paths may cancel earlier flow. No binary calls it; it
// is the max-flow oracle the tests hold DisjointPathsBounded and
// diversity.EdgeConnectivityBounded against.
func (g *Graph) EdgeConnectivityPair(s, t int) int {
	if s == t {
		return 0
	}
	// Residual capacity per directed arc.
	capn := make([]int8, 2*g.M())
	for i := range capn {
		capn[i] = 1
	}
	parentArc := make([]int, g.n)
	parentVert := make([]int32, g.n)
	visited := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	flow := 0
	for {
		for i := range visited {
			visited[i] = false
		}
		queue = queue[:0]
		visited[s] = true
		queue = append(queue, int32(s))
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, h := range g.adj[v] {
				arc := g.EdgeArc(int(h.Edge), int(v))
				if capn[arc] == 0 || visited[h.To] {
					continue
				}
				visited[h.To] = true
				parentArc[h.To] = arc
				parentVert[h.To] = v
				if int(h.To) == t {
					found = true
					break bfs
				}
				queue = append(queue, h.To)
			}
		}
		if !found {
			return flow
		}
		for v := int32(t); int(v) != s; v = parentVert[v] {
			arc := parentArc[v]
			capn[arc]--
			capn[arc^1]++
		}
		flow++
	}
}
