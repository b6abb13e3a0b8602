package graph

import (
	"testing"
	"testing/quick"
)

// ring returns a cycle graph C_n.
func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// clique returns a complete graph K_n.
func clique(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// grid returns an r x c grid graph.
func grid(r, c int) *Graph {
	g := New(r * c)
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(at(i, j), at(i, j+1))
			}
			if i+1 < r {
				g.AddEdge(at(i, j), at(i+1, j))
			}
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	id := g.AddEdge(0, 1)
	if id != 0 {
		t.Fatalf("first edge ID = %d, want 0", id)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge(0,2) should be false")
	}
	if g.M() != 1 || g.N() != 4 {
		t.Fatalf("M=%d N=%d, want 1, 4", g.M(), g.N())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("wrong degrees")
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Graph)
	}{
		{"self loop", func(g *Graph) { g.AddEdge(1, 1) }},
		{"out of range", func(g *Graph) { g.AddEdge(0, 9) }},
		{"negative", func(g *Graph) { g.AddEdge(-1, 0) }},
		{"duplicate", func(g *Graph) { g.AddEdge(0, 1); g.AddEdge(1, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.f(New(3))
		})
	}
}

func TestTryAddEdge(t *testing.T) {
	g := New(3)
	if !g.TryAddEdge(0, 1) {
		t.Fatal("first insert should succeed")
	}
	if g.TryAddEdge(0, 1) || g.TryAddEdge(1, 0) {
		t.Fatal("duplicate insert should fail")
	}
	if g.TryAddEdge(2, 2) {
		t.Fatal("self loop should fail")
	}
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
}

func TestBFSRing(t *testing.T) {
	g := ring(8)
	dist := g.BFS(0)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for i, d := range dist {
		if d != want[i] {
			t.Fatalf("dist[%d]=%d, want %d", i, d, want[i])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatal("components 2,3 should be unreachable from 0")
	}
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
}

func TestDiameterAndMean(t *testing.T) {
	d, mean := clique(5).DiameterAndMean()
	if d != 1 || mean != 1 {
		t.Fatalf("clique: D=%d mean=%f, want 1, 1", d, mean)
	}
	d, _ = ring(10).DiameterAndMean()
	if d != 5 {
		t.Fatalf("C10 diameter=%d, want 5", d)
	}
	d, _ = grid(3, 4).DiameterAndMean()
	if d != 5 {
		t.Fatalf("3x4 grid diameter=%d, want 5", d)
	}
	g := New(3)
	g.AddEdge(0, 1)
	if d, _ := g.DiameterAndMean(); d != -1 {
		t.Fatalf("disconnected diameter=%d, want -1", d)
	}
}

func TestSubsetConnected(t *testing.T) {
	g := ring(6)
	enabled := make([]bool, g.M())
	for i := range enabled {
		enabled[i] = true
	}
	if !g.SubsetConnected(enabled) {
		t.Fatal("full ring should be connected")
	}
	enabled[0] = false
	if !g.SubsetConnected(enabled) {
		t.Fatal("ring minus one edge is a path, still connected")
	}
	enabled[3] = false
	if g.SubsetConnected(enabled) {
		t.Fatal("ring minus two edges should disconnect")
	}
}

func TestShortestPathDAGCounts(t *testing.T) {
	// 2x2 grid: two shortest paths between opposite corners.
	g := grid(2, 2)
	_, count := g.ShortestPathDAGCounts(0, 0)
	if count[3] != 2 {
		t.Fatalf("corner-to-corner shortest path count = %d, want 2", count[3])
	}
	// Clique: exactly one shortest path to each neighbor.
	_, count = clique(6).ShortestPathDAGCounts(0, 0)
	for v := 1; v < 6; v++ {
		if count[v] != 1 {
			t.Fatalf("clique count[%d]=%d, want 1", v, count[v])
		}
	}
}

func TestDisjointPathsClique(t *testing.T) {
	g := clique(6)
	// K6: 5 edge-disjoint paths between any pair within 2 hops
	// (1 direct + 4 two-hop).
	got := g.DisjointPathsBounded([]int{0}, []int{1}, DisjointPathsOpts{MaxLen: 2})
	if got != 5 {
		t.Fatalf("K6 c_2(0,1)=%d, want 5", got)
	}
	if got := g.DisjointPathsBounded([]int{0}, []int{1}, DisjointPathsOpts{MaxLen: 1}); got != 1 {
		t.Fatalf("K6 c_1(0,1)=%d, want 1", got)
	}
}

func TestDisjointPathsRing(t *testing.T) {
	g := ring(8)
	// Opposite vertices: two disjoint 4-hop paths.
	if got := g.DisjointPathsBounded([]int{0}, []int{4}, DisjointPathsOpts{MaxLen: 4}); got != 2 {
		t.Fatalf("C8 c_4(0,4)=%d, want 2", got)
	}
	// Length limit 3 finds none.
	if got := g.DisjointPathsBounded([]int{0}, []int{4}, DisjointPathsOpts{MaxLen: 3}); got != 0 {
		t.Fatalf("C8 c_3(0,4)=%d, want 0", got)
	}
	// Adjacent vertices: the 1-hop path plus the 7-hop way around.
	if got := g.DisjointPathsBounded([]int{0}, []int{1}, DisjointPathsOpts{MaxLen: 0}); got != 2 {
		t.Fatalf("C8 unbounded disjoint(0,1)=%d, want 2", got)
	}
}

func TestDisjointPathsMaxCount(t *testing.T) {
	g := clique(8)
	got := g.DisjointPathsBounded([]int{0}, []int{1}, DisjointPathsOpts{MaxLen: 2, MaxCount: 3})
	if got != 3 {
		t.Fatalf("capped count = %d, want 3", got)
	}
}

func TestDisjointPathsSets(t *testing.T) {
	g := grid(3, 3)
	// From left column to right column in a 3x3 grid: 3 disjoint rows.
	got := g.DisjointPathsBounded([]int{0, 3, 6}, []int{2, 5, 8}, DisjointPathsOpts{MaxLen: 2})
	if got != 3 {
		t.Fatalf("grid column-to-column c_2 = %d, want 3", got)
	}
}

// TestArcs pins the directed-arc numbering: edge id is arc 2·id from U to
// V and arc 2·id+1 back, whichever way round the edge was inserted.
func TestArcs(t *testing.T) {
	g := New(5) // vertex 4 stays isolated
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	g.AddEdge(3, 0)
	g.AddEdge(2, 3)
	for _, c := range []struct{ from, to, arc int }{
		{0, 1, 0}, {1, 0, 1},
		{2, 1, 2}, {1, 2, 3},
		{3, 0, 4}, {0, 3, 5},
		{2, 3, 6}, {3, 2, 7},
	} {
		if got := g.Arc(c.from, c.to); got != c.arc {
			t.Errorf("Arc(%d,%d) = %d, want %d", c.from, c.to, got, c.arc)
		}
		if got := g.EdgeArc(g.EdgeBetween(c.from, c.to), c.from); got != c.arc {
			t.Errorf("EdgeArc(edge %d, tail %d) = %d, want %d", g.EdgeBetween(c.from, c.to), c.from, got, c.arc)
		}
		if got := g.ArcTail(c.arc); got != c.from {
			t.Errorf("ArcTail(%d) = %d, want %d", c.arc, got, c.from)
		}
		if g.Arc(c.from, c.to)^1 != g.Arc(c.to, c.from) {
			t.Errorf("arcs %d->%d and %d->%d are not each other's ^1", c.from, c.to, c.to, c.from)
		}
	}
	for _, p := range [][2]int{{0, 2}, {1, 3}, {4, 0}, {0, 4}, {1, 1}} {
		if got := g.Arc(p[0], p[1]); got != -1 {
			t.Errorf("Arc(%d,%d) = %d for a non-adjacent pair, want -1", p[0], p[1], got)
		}
	}
	// On a larger graph: every arc is reached from its own endpoints, and
	// ArcTail inverts Arc.
	g = grid(4, 5)
	for a := 0; a < 2*g.M(); a++ {
		from, to := g.ArcTail(a), g.ArcTail(a^1)
		if g.Arc(from, to) != a || g.Arc(to, from) != a^1 {
			t.Fatalf("arc %d: tail %d, head %d, but Arc gives %d and %d", a, from, to, g.Arc(from, to), g.Arc(to, from))
		}
	}
}

func TestEdgeConnectivityPair(t *testing.T) {
	if got := clique(6).EdgeConnectivityPair(0, 3); got != 5 {
		t.Fatalf("K6 edge connectivity = %d, want 5", got)
	}
	if got := ring(9).EdgeConnectivityPair(0, 4); got != 2 {
		t.Fatalf("C9 edge connectivity = %d, want 2", got)
	}
	// Barbell: two triangles joined by a single bridge.
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	g.AddEdge(2, 3)
	if got := g.EdgeConnectivityPair(0, 5); got != 1 {
		t.Fatalf("barbell edge connectivity = %d, want 1", got)
	}
}

func TestSubgraph(t *testing.T) {
	g := clique(4)
	enabled := make([]bool, g.M())
	enabled[0] = true // edge (0,1)
	s := g.Subgraph(enabled)
	if s.M() != 1 || !s.HasEdge(0, 1) {
		t.Fatal("subgraph should contain exactly edge (0,1)")
	}
	if s.N() != g.N() {
		t.Fatal("subgraph must preserve vertex set")
	}
}

func TestIsRegular(t *testing.T) {
	if ok, d := ring(7).IsRegular(); !ok || d != 2 {
		t.Fatalf("ring regular=(%v,%d), want (true,2)", ok, d)
	}
	if ok, _ := grid(2, 3).IsRegular(); ok {
		t.Fatal("grid should not be regular")
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	g := grid(4, 5)
	dist := g.BFS(0)
	for t0 := 0; t0 < g.N(); t0++ {
		path, w := g.Dijkstra(0, t0, Unit, nil, nil)
		if int32(w) != dist[t0] {
			t.Fatalf("Dijkstra(0,%d)=%f, BFS=%d", t0, w, dist[t0])
		}
		if len(path) != int(dist[t0])+1 {
			t.Fatalf("path vertex count %d, want %d", len(path), dist[t0]+1)
		}
	}
}

func TestYenKShortestRing(t *testing.T) {
	g := ring(6)
	paths := g.YenKShortest(0, 3, 4, Unit)
	if len(paths) != 2 {
		t.Fatalf("C6 has exactly 2 loop-free 0->3 paths, got %d", len(paths))
	}
	if len(paths[0]) != 4 || len(paths[1]) != 4 {
		t.Fatalf("both paths should have 3 hops, got %d and %d", len(paths[0])-1, len(paths[1])-1)
	}
}

func TestYenKShortestOrderingAndValidity(t *testing.T) {
	g := grid(3, 3)
	paths := g.YenKShortest(0, 8, 6, Unit)
	if len(paths) != 6 {
		t.Fatalf("got %d paths, want 6 (all 4-hop monotone paths)", len(paths))
	}
	prev := 0.0
	for _, p := range paths {
		w := g.PathWeight(p, Unit)
		if w < prev {
			t.Fatal("paths not in increasing weight order")
		}
		prev = w
		seen := map[int32]bool{}
		for _, v := range p {
			if seen[v] {
				t.Fatal("path contains a loop")
			}
			seen[v] = true
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(int(p[i]), int(p[i+1])) {
				t.Fatal("path uses a non-edge")
			}
		}
	}
	// All 6 must be distinct.
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if pathsEqual(paths[i], paths[j]) {
				t.Fatal("duplicate path returned")
			}
		}
	}
}

func TestPermutationProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRand(seed)
		n := 1 + int(uint(seed)%64)
		p := Permutation(rng, n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctPair(t *testing.T) {
	rng := NewRand(1)
	for i := 0; i < 1000; i++ {
		a, b := SampleDistinctPair(rng, 5)
		if a == b || a < 0 || b < 0 || a >= 5 || b >= 5 {
			t.Fatalf("bad pair (%d,%d)", a, b)
		}
	}
}

// Property: the greedy bounded disjoint-path count never exceeds the exact
// edge connectivity, and equals it when unbounded on small random graphs.
func TestDisjointBoundedVsExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRand(seed)
		n := 5 + rng.Intn(8)
		g := New(n)
		// Random connected-ish graph: ring + random chords.
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n)
		}
		for i := 0; i < n; i++ {
			g.TryAddEdge(rng.Intn(n), rng.Intn(n))
		}
		s, t0 := SampleDistinctPair(rng, n)
		exact := g.EdgeConnectivityPair(s, t0)
		for l := 1; l <= n; l++ {
			if got := g.DisjointPathsBounded([]int{s}, []int{t0}, DisjointPathsOpts{MaxLen: l}); got > exact {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances obey the triangle inequality over edges.
func TestBFSTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRand(seed)
		n := 4 + rng.Intn(20)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i, rng.Intn(i)) // random tree keeps it connected
		}
		for i := 0; i < n/2; i++ {
			g.TryAddEdge(rng.Intn(n), rng.Intn(n))
		}
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
