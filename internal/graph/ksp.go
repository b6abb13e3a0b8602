package graph

import "math"

// WeightFunc assigns a non-negative traversal cost to an edge; hop-count
// routing uses Unit.
type WeightFunc func(edgeID int) float64

// Unit is the hop-count weight function.
func Unit(int) float64 { return 1 }

// dijkstraItem is one heap entry; stale entries (a vertex pushed again at a
// smaller distance) are skipped when popped.
type dijkstraItem struct {
	dist   float64
	vertex int32
}

// DijkstraScratch is the state of one Dijkstra search, reusable across calls
// on graphs of any size so that callers issuing many searches (SPAIN's
// Nr²·K, Yen's k·len(path)) allocate it once. The zero value is ready; a
// scratch must not be shared between goroutines.
type DijkstraScratch struct {
	dist   []float64
	parent []int32
	done   []bool
	heap   []dijkstraItem
}

// push and pop repeat container/heap's up and down swap for swap, ordered
// on dist alone: equal-distance vertices leave in the order they always
// have, so every tie — and with it every SPAIN layer — is unchanged.
func (sc *DijkstraScratch) push(it dijkstraItem) {
	h := append(sc.heap, it)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	sc.heap = h
}

func (sc *DijkstraScratch) pop() dijkstraItem {
	h := sc.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	sc.heap = h[:n]
	return h[n]
}

// Dijkstra computes a minimum-weight path from s to t under w, honoring the
// optional disabled-edge and disabled-vertex masks (used by Yen's spur
// computation). It returns the vertex path and its total weight, or
// (nil, +Inf) if t is unreachable.
func (g *Graph) Dijkstra(s, t int, w WeightFunc, edgeOff, vertOff []bool) ([]int32, float64) {
	return g.DijkstraWith(new(DijkstraScratch), s, t, w, edgeOff, vertOff)
}

// DijkstraWith is Dijkstra on caller-owned scratch. The returned path is
// freshly allocated and does not alias sc.
func (g *Graph) DijkstraWith(sc *DijkstraScratch, s, t int, w WeightFunc, edgeOff, vertOff []bool) ([]int32, float64) {
	if len(sc.dist) != g.n {
		sc.dist = make([]float64, g.n)
		sc.parent = make([]int32, g.n)
		sc.done = make([]bool, g.n)
	}
	dist, parent, done := sc.dist, sc.parent, sc.done
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
		parent[i] = -1
		done[i] = false
	}
	dist[s] = 0
	sc.heap = append(sc.heap[:0], dijkstraItem{vertex: int32(s)})
	for len(sc.heap) > 0 {
		v := sc.pop().vertex
		if done[v] {
			continue
		}
		done[v] = true
		if int(v) == t {
			break
		}
		for _, half := range g.adj[v] {
			if edgeOff != nil && edgeOff[half.Edge] {
				continue
			}
			if vertOff != nil && vertOff[half.To] {
				continue
			}
			nd := dist[v] + w(int(half.Edge))
			if nd < dist[half.To] {
				dist[half.To] = nd
				parent[half.To] = v
				sc.push(dijkstraItem{vertex: half.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[t], 1) {
		return nil, inf
	}
	hops := 0
	for v := parent[t]; v != -1; v = parent[v] {
		hops++
	}
	path := make([]int32, hops+1)
	for v, i := int32(t), hops; i >= 0; v, i = parent[v], i-1 {
		path[i] = v
	}
	return path, dist[t]
}

// PathWeight sums w over the consecutive edges of a vertex path. It returns
// +Inf if the path uses a non-existent edge.
func (g *Graph) PathWeight(path []int32, w WeightFunc) float64 {
	var total float64
	for i := 0; i+1 < len(path); i++ {
		id := g.EdgeBetween(int(path[i]), int(path[i+1]))
		if id < 0 {
			return math.Inf(1)
		}
		total += w(id)
	}
	return total
}

// YenKShortest computes up to k loop-free minimum-weight paths from s to t
// in increasing weight order using Yen's algorithm with Dijkstra as the
// spur-path oracle (the k-shortest-paths baseline of §VI / Appendix C-D).
func (g *Graph) YenKShortest(s, t, k int, w WeightFunc) [][]int32 {
	if k <= 0 {
		return nil
	}
	first, _ := g.Dijkstra(s, t, w, nil, nil)
	if first == nil {
		return nil
	}
	paths := [][]int32{first}
	if k == 1 {
		return paths
	}
	var candidates []yenCandidate

	var sc DijkstraScratch // shared by every spur search below
	edgeOff := make([]bool, g.M())
	vertOff := make([]bool, g.n)

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for spur := 0; spur+1 < len(prev); spur++ {
			root := prev[:spur+1]
			for i := range edgeOff {
				edgeOff[i] = false
			}
			for i := range vertOff {
				vertOff[i] = false
			}
			// Remove edges that would recreate an already-found path
			// sharing this root.
			for _, p := range paths {
				if len(p) > spur+1 && equalPrefix(p, root) {
					if id := g.EdgeBetween(int(p[spur]), int(p[spur+1])); id >= 0 {
						edgeOff[id] = true
					}
				}
			}
			for _, c := range candidates {
				if len(c.path) > spur+1 && equalPrefix(c.path, root) {
					if id := g.EdgeBetween(int(c.path[spur]), int(c.path[spur+1])); id >= 0 {
						edgeOff[id] = true
					}
				}
			}
			// Remove root vertices except the spur node itself.
			for _, v := range root[:len(root)-1] {
				vertOff[v] = true
			}
			spurPath, _ := g.DijkstraWith(&sc, int(prev[spur]), t, w, edgeOff, vertOff)
			if spurPath == nil {
				continue
			}
			full := append(append([]int32{}, root[:len(root)-1]...), spurPath...)
			if containsPath(paths, full) || containsCandidate(candidates, full) {
				continue
			}
			candidates = append(candidates, yenCandidate{path: full, weight: g.PathWeight(full, w)})
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].weight < candidates[best].weight {
				best = i
			}
		}
		paths = append(paths, candidates[best].path)
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func equalPrefix(p, prefix []int32) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p[i] != v {
			return false
		}
	}
	return true
}

func pathsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsPath(ps [][]int32, p []int32) bool {
	for _, q := range ps {
		if pathsEqual(p, q) {
			return true
		}
	}
	return false
}

type yenCandidate struct {
	path   []int32
	weight float64
}

func containsCandidate(cs []yenCandidate, p []int32) bool {
	for _, c := range cs {
		if pathsEqual(c.path, p) {
			return true
		}
	}
	return false
}
