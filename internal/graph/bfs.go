package graph

// Unreachable marks a vertex not reachable from the BFS source.
const Unreachable int32 = -1

// BFS computes hop distances from src to every vertex. Unreachable vertices
// get distance Unreachable (-1).
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	g.bfsInto(src, dist, nil)
	return dist
}

// bfsInto runs BFS from src writing into dist (which must be pre-filled with
// Unreachable). If enabled is non-nil, only edges with enabled[id]==true are
// traversed.
func (g *Graph) bfsInto(src int, dist []int32, enabled []bool) {
	queue := make([]int32, 0, g.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		for _, h := range g.adj[v] {
			if enabled != nil && !enabled[h.Edge] {
				continue
			}
			if dist[h.To] == Unreachable {
				dist[h.To] = dv + 1
				queue = append(queue, h.To)
			}
		}
	}
}

// BFSEnabled computes hop distances from src using only enabled edges.
func (g *Graph) BFSEnabled(src int, enabled []bool) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	g.bfsInto(src, dist, enabled)
	return dist
}

// Connected reports whether the graph is connected (all vertices reachable
// from vertex 0). An empty graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// SubsetConnected reports whether the subgraph induced by enabled edges
// spans all vertices (every vertex reachable from vertex 0 via enabled
// edges). Layer constructions use it to reject disconnecting samples.
func (g *Graph) SubsetConnected(enabled []bool) bool {
	if g.n == 0 {
		return true
	}
	dist := g.BFSEnabled(0, enabled)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// DiameterAndMean computes the exact diameter D and mean shortest-path
// length d over all ordered vertex pairs via N breadth-first searches.
// It returns (-1, 0) for a disconnected graph.
func (g *Graph) DiameterAndMean() (int, float64) {
	if g.n <= 1 {
		return 0, 0
	}
	diam := 0
	var sum float64
	var pairs float64
	dist := make([]int32, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		g.bfsInto(s, dist, nil)
		for t, d := range dist {
			if t == s {
				continue
			}
			if d == Unreachable {
				return -1, 0
			}
			if int(d) > diam {
				diam = int(d)
			}
			sum += float64(d)
			pairs++
		}
	}
	return diam, sum / pairs
}

// ShortestPathDAGCounts computes, for a fixed source s, the distance of
// every vertex and the number of distinct shortest paths from s to it
// (counts saturate at the given cap to avoid overflow on dense graphs;
// pass cap<=0 for no saturation up to int64 range).
func (g *Graph) ShortestPathDAGCounts(s int, cap int64) (dist []int32, count []int64) {
	dist = make([]int32, g.n)
	count = make([]int64, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[s] = 0
	count[s] = 1
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[v] {
			switch {
			case dist[h.To] == Unreachable:
				dist[h.To] = dist[v] + 1
				count[h.To] = count[v]
				queue = append(queue, h.To)
			case dist[h.To] == dist[v]+1:
				count[h.To] += count[v]
				if cap > 0 && count[h.To] > cap {
					count[h.To] = cap
				}
			}
		}
	}
	return dist, count
}
