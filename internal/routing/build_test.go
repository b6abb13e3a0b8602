package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// referenceTable is the scalar builder buildTable replaced, kept as its
// oracle: a queue BFS over adjacency lists (graph.BFS / BFSEnabled), then a
// counting and a filling walk over every Half of every router. It shares
// no code with the bitset builder. Candidates come out in adjacency order,
// which is ascending neighbor ID when the graph's adjacency is sorted.
func referenceTable(g *graph.Graph, mask []bool, dst int) *Table {
	var dist []int32
	if mask == nil {
		dist = g.BFS(dst)
	} else {
		dist = g.BFSEnabled(dst, mask)
	}
	nr := g.N()
	total := 0
	for src := 0; src < nr; src++ {
		if src == dst || dist[src] <= 0 {
			continue
		}
		for _, h := range g.Neighbors(src) {
			if mask != nil && !mask[h.Edge] {
				continue
			}
			if dist[h.To] == dist[src]-1 {
				total++
			}
		}
	}
	off := make([]int32, nr+1)
	cand := make([]int32, 0, total)
	for src := 0; src < nr; src++ {
		off[src] = int32(len(cand))
		if src == dst || dist[src] <= 0 {
			continue
		}
		for _, h := range g.Neighbors(src) {
			if mask != nil && !mask[h.Edge] {
				continue
			}
			if dist[h.To] == dist[src]-1 {
				cand = append(cand, h.To)
			}
		}
	}
	off[nr] = int32(len(cand))
	return &Table{Dist: dist, Off: off, Cand: cand}
}

// diffTables compares two tables slice for slice and names the first
// difference ("" when identical).
func diffTables(got, want *Table) string {
	for _, f := range []struct {
		name      string
		got, want []int32
	}{{"Dist", got.Dist, want.Dist}, {"Off", got.Off, want.Off}, {"Cand", got.Cand, want.Cand}} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// requireMatchesReference builds every destination's table of (g, mask)
// with the bitset builder — one scratch reused throughout, as a BuildAll
// worker does — and compares each against the scalar oracle.
func requireMatchesReference(t *testing.T, g *graph.Graph, mask []bool) {
	t.Helper()
	rows := adjacencyRows(g, mask)
	var sc buildScratch
	for dst := 0; dst < g.N(); dst++ {
		if d := diffTables(buildTable(rows, g.N(), dst, &sc), referenceTable(g, mask, dst)); d != "" {
			t.Fatalf("dst %d: %s", dst, d)
		}
	}
}

// randomSortedGraph draws a G(n, p) graph with sorted adjacency.
func randomSortedGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	g.SortAdjacency()
	return g
}

func randomMask(m int, rho float64, rng *rand.Rand) []bool {
	mask := make([]bool, m)
	for id := range mask {
		mask[id] = rng.Float64() < rho
	}
	return mask
}

// TestBuildTableMatchesReference is the differential test of the routing
// core: the bitset builder against the scalar oracle on Dist, Off and Cand,
// over router counts on both sides of every word boundary, full and
// sparsified layers, layers cut into components (unreachable sources:
// Dist -1, no candidates), and every topology family at its smallest size.
func TestBuildTableMatchesReference(t *testing.T) {
	rng := graph.NewRand(20)
	for _, nr := range []int{1, 2, 63, 64, 65, 128, 129, 300} {
		// Mean degree ~6: diameter well above the 2–3 of the real
		// topologies, so deep level stacks are exercised too.
		g := randomSortedGraph(nr, min(1, 6/float64(nr)), rng)
		t.Run(fmt.Sprintf("random/nr=%d/full", nr), func(t *testing.T) { requireMatchesReference(t, g, nil) })
		for _, rho := range []float64{0.3, 0.6, 0.9} {
			mask := randomMask(g.M(), rho, rng)
			t.Run(fmt.Sprintf("random/nr=%d/rho=%.1f", nr, rho), func(t *testing.T) { requireMatchesReference(t, g, mask) })
		}
		// Disconnect the layer: drop every edge crossing the midpoint, and
		// isolate the last router entirely.
		cut := make([]bool, g.M())
		for id, e := range g.Edges() {
			cut[id] = (int(e.U) < nr/2) == (int(e.V) < nr/2) && int(e.U) != nr-1 && int(e.V) != nr-1
		}
		t.Run(fmt.Sprintf("random/nr=%d/disconnected", nr), func(t *testing.T) {
			requireMatchesReference(t, g, cut)
			if nr >= 2 {
				tab := buildTable(adjacencyRows(g, cut), nr, 0, new(buildScratch))
				if tab.Dist[nr-1] != -1 || len(tab.Candidates(nr-1)) != 0 {
					t.Fatalf("isolated router: Dist %d, candidates %v", tab.Dist[nr-1], tab.Candidates(nr-1))
				}
			}
		})
	}
	for _, kind := range []string{"SF", "DF", "HX", "XP", "FT3", "JF", "Clique"} {
		tp, err := topo.ByName(kind, topo.Small, graph.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(kind+"/full", func(t *testing.T) { requireMatchesReference(t, tp.G, nil) })
		mask := randomMask(tp.G.M(), 0.6, rng)
		t.Run(kind+"/rho=0.6", func(t *testing.T) { requireMatchesReference(t, tp.G, mask) })
	}
}

// TestCandidatesAscendingWhateverInsertionOrder pins the documented
// contract "candidates in ascending neighbor ID" on a graph whose adjacency
// lists are in descending order — where the scalar oracle, which follows
// adjacency order, yields the reverse.
func TestCandidatesAscendingWhateverInsertionOrder(t *testing.T) {
	// 0 is the destination; 1..4 are its neighbors; 5 hangs off all four.
	g := graph.New(6)
	for v := 4; v >= 1; v-- {
		g.AddEdge(5, v)
		g.AddEdge(v, 0)
	}
	tab := NewEngine(g, [][]bool{nil}, 1).Table(0, 0)
	if got, want := tab.Candidates(5), []int32{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("candidates of 5 toward 0 = %v, want %v", got, want)
	}
	if ref := referenceTable(g, nil, 0).Candidates(5); !slices.Equal(ref, []int32{4, 3, 2, 1}) {
		t.Fatalf("oracle on unsorted adjacency = %v; the test no longer distinguishes the two orders", ref)
	}
	g.SortAdjacency()
	if d := diffTables(tab, referenceTable(g, nil, 0)); d != "" {
		t.Fatalf("after SortAdjacency the oracle must agree: %s", d)
	}
}

// fuzzCase decodes arbitrary bytes into a graph with sorted adjacency, a
// layer mask (nil when the first byte is even) and a destination.
func fuzzCase(data []byte) (g *graph.Graph, mask []bool, dst int) {
	if len(data) < 3 {
		return nil, nil, 0
	}
	useMask := data[0]&1 == 1
	nr := int(data[1])%130 + 1
	dst = int(data[2]) % nr
	g = graph.New(nr)
	for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
		if g.TryAddEdge(int(rest[0])%nr, int(rest[1])%nr) && useMask {
			mask = append(mask, rest[2]&3 != 0)
		}
	}
	if useMask && mask == nil {
		mask = []bool{}
	}
	g.SortAdjacency()
	return g, mask, dst
}

// FuzzBuildTable feeds arbitrary (edge list, mask, destination) triples to
// both builders. Seed corpus: testdata/fuzz/FuzzBuildTable.
func FuzzBuildTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, mask, dst := fuzzCase(data)
		if g == nil {
			return
		}
		got := buildTable(adjacencyRows(g, mask), g.N(), dst, new(buildScratch))
		if d := diffTables(got, referenceTable(g, mask, dst)); d != "" {
			t.Fatalf("nr=%d m=%d dst=%d masked=%v: %s", g.N(), g.M(), dst, mask != nil, d)
		}
	})
}

// TestConcurrentIndexFirstTouch has many goroutines first-touch different
// destinations of layers whose adjacency index nobody has built yet, all
// released at once. Every goroutine must observe the one published index,
// and every table must equal the oracle's. Run under -race in CI.
func TestConcurrentIndexFirstTouch(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	masks := testMasks(sf.G, 3, 0.7, graph.NewRand(31))
	for round := 0; round < 20; round++ {
		e := NewEngine(sf.G, masks, 1)
		const workers = 8
		seen := make([][]*uint64, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for l := 0; l < e.NumLayers(); l++ {
					for d := w; d < e.nr; d += workers {
						e.Table(l, d)
					}
					seen[w] = append(seen[w], &e.layerRows(l)[0])
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			if !slices.Equal(seen[w], seen[0]) {
				t.Fatalf("round %d: goroutine %d observed a different index than goroutine 0", round, w)
			}
		}
		for l := 0; l < e.NumLayers(); l++ {
			for d := 0; d < e.nr; d++ {
				if diff := diffTables(e.Table(l, d), referenceTable(sf.G, masks[l], d)); diff != "" {
					t.Fatalf("round %d table (%d,%d): %s", round, l, d, diff)
				}
			}
		}
	}
}

// TestWithoutEdgesSharesUntouchedIndex pins the index-sharing rule: a layer
// the failed edges do not touch shares the parent's index holder (built or
// not — whichever engine builds first serves both), a touched layer gets
// its own, and a derived view never writes through to the parent's rows.
func TestWithoutEdgesSharesUntouchedIndex(t *testing.T) {
	g := randomSortedGraph(40, 0.2, graph.NewRand(5))
	with0 := make([]bool, g.M()) // a proper subset that still contains edge 0
	for id := range with0 {
		with0[id] = id != 1
	}
	without0 := make([]bool, g.M())
	for id := range without0 {
		without0[id] = id != 0
	}
	parent := NewEngine(g, [][]bool{nil, with0, without0}, 1)
	derived := parent.WithoutEdges([]int{0})
	if derived.adj[0] == parent.adj[0] || derived.adj[1] == parent.adj[1] {
		t.Fatal("layers containing the failed edge must get their own index")
	}
	if derived.adj[2] != parent.adj[2] {
		t.Fatal("a layer without the failed edge must share the parent's index")
	}
	// The derived view fills the shared holder first; the parent then reads
	// the same rows.
	derived.Table(2, 3)
	if &parent.layerRows(2)[0] != &derived.layerRows(2)[0] {
		t.Fatal("shared holder filled twice")
	}
	derived.BuildAll(2)
	parent.BuildAll(2)
	for l, mask := range parent.masks {
		for d := 0; d < g.N(); d++ {
			if diff := diffTables(parent.Table(l, d), referenceTable(g, mask, d)); diff != "" {
				t.Fatalf("parent table (%d,%d) after derivation: %s", l, d, diff)
			}
			if diff := diffTables(derived.Table(l, d), referenceTable(g, derived.masks[l], d)); diff != "" {
				t.Fatalf("derived table (%d,%d): %s", l, d, diff)
			}
		}
	}
}

// TestWithoutEdgesIgnoresBadIDs: out-of-range IDs are ignored, duplicates
// count once, and nil/empty lists share everything.
func TestWithoutEdgesIgnoresBadIDs(t *testing.T) {
	parent, g := testEngine(t, 3)
	parent.BuildAll(2)
	total := parent.NumLayers() * parent.nr
	for _, failed := range [][]int{nil, {}, {-1, g.M(), g.M() + 7}} {
		dv := parent.WithoutEdges(failed)
		if shared, invalidated := dv.Repair(); shared != total || invalidated != 0 {
			t.Fatalf("WithoutEdges(%v): shared %d invalidated %d, want %d / 0", failed, shared, invalidated, total)
		}
	}
	clean := parent.WithoutEdges([]int{2})
	noisy := parent.WithoutEdges([]int{2, -5, 2, g.M(), 2})
	cs, ci := clean.Repair()
	ns, ni := noisy.Repair()
	if cs != ns || ci != ni || ci == 0 {
		t.Fatalf("duplicates/out-of-range changed the census: %d/%d vs %d/%d", cs, ci, ns, ni)
	}
	if st := clean.Stat(); st.TablesBuilt != cs || cs+ci != total {
		t.Fatalf("Repair() = %d shared + %d invalidated, Stat says %d built of %d", cs, ci, st.TablesBuilt, total)
	}
	requireEqualEngines(t, clean, noisy)
}

// TestAllocsPerTable pins the eager build's allocation count: the Table
// header and its one slab, nothing per table for the BFS (worker scratch
// is reused) and a per-layer index amortized over Nr tables. The scalar
// builder made at least five.
func TestAllocsPerTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	masks := testMasks(sf.G, 4, 0.7, graph.NewRand(99))
	tables := float64(len(masks) * sf.G.N())
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(5, func() {
			NewEngine(sf.G, masks, 1).BuildAll(workers)
		})
		// perEngine bounds what does not scale with the table count: the
		// engine, its slot array and index holders, one index per layer,
		// and per worker a goroutine and a scratch that grows a few times.
		const perEngine = 40
		if allocs > 2*tables+perEngine {
			t.Errorf("BuildAll(%d): %.0f allocations for %.0f tables, want <= 2 per table + %d", workers, allocs, tables, perEngine)
		}
		t.Logf("BuildAll(%d): %.0f allocations for %.0f tables", workers, allocs, tables)
	}
}
