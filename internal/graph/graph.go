// Package graph provides the undirected-graph substrate used by every other
// package in this repository: compact adjacency storage with stable edge
// identifiers, breadth-first search (optionally length-limited and restricted
// to an enabled edge subset), all-pairs shortest-path statistics, greedy
// length-limited edge-disjoint path counting (the Ford–Fulkerson-style
// variant used by the FatPaths paper for its CDP metric), weighted Dijkstra,
// and Yen's k-shortest loop-free paths.
//
// Vertices are integers in [0, N). Edges are undirected, carry a stable
// integer ID in [0, M), and the graph is simple (no self loops, no parallel
// edges) — topology generators enforce simplicity before insertion.
package graph

import (
	"fmt"
	"sort"
)

// Half is one direction of an undirected edge as seen from a vertex's
// adjacency list: the opposite endpoint and the edge's stable ID.
type Half struct {
	To   int32
	Edge int32
}

// Edge is an undirected edge between vertices U and V (U < V is not
// guaranteed; endpoints are stored in insertion order).
type Edge struct {
	U, V int32
}

// Graph is an undirected simple graph with stable edge IDs.
// The zero value is an empty graph with no vertices; use New.
type Graph struct {
	n     int
	adj   [][]Half
	edges []Edge
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]Half, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the slice of undirected edges indexed by edge ID.
// The returned slice is owned by the graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Every edge id is two directed arcs: 2·id leaves U for V and 2·id+1 leaves
// V for U, so an arc's reverse is arc^1. These three methods are the only
// place that rule is written; residual capacities, MCF arc variables,
// channel ids and simulator link ids are all arc ids.

// EdgeArc returns the arc of edge id that leaves tail, one of its endpoints.
func (g *Graph) EdgeArc(id, tail int) int {
	if int(g.edges[id].U) == tail {
		return 2 * id
	}
	return 2*id + 1
}

// Arc returns the arc from -> to, or -1 when the two are not adjacent.
func (g *Graph) Arc(from, to int) int {
	id := g.EdgeBetween(from, to)
	if id < 0 {
		return -1
	}
	return g.EdgeArc(id, from)
}

// ArcTail returns the vertex arc a leaves.
func (g *Graph) ArcTail(a int) int {
	e := g.edges[a>>1]
	if a&1 == 0 {
		return int(e.U)
	}
	return int(e.V)
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []Half { return g.adj[v] }

// EdgeBetween returns the ID of the edge joining u and v, or -1 if there is
// none (also for a vertex out of range). It scans the shorter of the two
// adjacency lists; HasEdge and Arc are this lookup.
func (g *Graph) EdgeBetween(u, v int) int {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return -1
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if int(h.To) == v {
			return int(h.Edge)
		}
	}
	return -1
}

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v int) bool { return g.EdgeBetween(u, v) >= 0 }

// AddEdge inserts an undirected edge between u and v and returns its ID.
// It panics on self loops, out-of-range vertices, or duplicate edges:
// topologies in this repository are simple graphs by construction, so a
// duplicate indicates a generator bug that must not be silently absorbed.
func (g *Graph) AddEdge(u, v int) int {
	if u == v {
		panic(fmt.Sprintf("graph: self loop at vertex %d", u))
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if !g.TryAddEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
	}
	return len(g.edges) - 1
}

// TryAddEdge inserts the edge unless it already exists or is a self loop,
// reporting whether an insertion happened. Random constructions (Jellyfish)
// use it to retry sampling without panicking.
func (g *Graph) TryAddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n || g.HasEdge(u, v) {
		return false
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: int32(u), V: int32(v)})
	g.adj[u] = append(g.adj[u], Half{To: int32(v), Edge: int32(id)})
	g.adj[v] = append(g.adj[v], Half{To: int32(u), Edge: int32(id)})
	return true
}

// Subgraph returns a new graph on the same vertex set containing exactly the
// edges whose IDs are enabled. Edge IDs are NOT preserved in the subgraph.
func (g *Graph) Subgraph(enabled []bool) *Graph {
	if len(enabled) != len(g.edges) {
		panic("graph: enabled mask length mismatch")
	}
	s := New(g.n)
	for id, e := range g.edges {
		if enabled[id] {
			s.AddEdge(int(e.U), int(e.V))
		}
	}
	return s
}

// IsRegular reports whether every vertex has the same degree, and that degree.
func (g *Graph) IsRegular() (bool, int) {
	if g.n == 0 {
		return true, 0
	}
	d := len(g.adj[0])
	for v := 1; v < g.n; v++ {
		if len(g.adj[v]) != d {
			return false, 0
		}
	}
	return true, d
}

// SortAdjacency orders every adjacency list by neighbor ID. Generators call
// it once after construction so that iteration order (and therefore every
// seeded random experiment) is independent of insertion order.
func (g *Graph) SortAdjacency() {
	for v := range g.adj {
		a := g.adj[v]
		sort.Slice(a, func(i, j int) bool { return a[i].To < a[j].To })
	}
}
