package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// refTable is what the oracle produces: the int32 CSR the tables used to be
// stored as. dist[src] is the hop count (-1 when unreachable) and
// cand[off[src]:off[src+1]] lists src's candidate next hops.
type refTable struct{ dist, off, cand []int32 }

func (t *refTable) candidates(src int) []int32 { return t.cand[t.off[src]:t.off[src+1]] }

// referenceTable is the scalar builder buildTable replaced, kept as its
// oracle: a queue BFS over adjacency lists (graph.BFS / BFSEnabled), then a
// counting and a filling walk over every Half of every router. It shares
// no code with the bitset builder and knows nothing of masks or positions.
// Candidates come out in adjacency order, which is ascending neighbor ID
// when the graph's adjacency is sorted.
func referenceTable(g *graph.Graph, mask []bool, dst int) *refTable {
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
	return &refTable{dist: dist, off: off, cand: cand}
}

// diffTable decodes the engine's (layer, dst) table through its readers —
// PathLen, the candidate masks mapped back to router IDs, the per-table
// candidate count — compares it with the oracle's and names the first
// difference ("" when identical).
func diffTable(e *Engine, layer, dst int, want *refTable) string {
	var cands []int32
	for src := 0; src < e.nr; src++ {
		if got := e.PathLen(layer, src, dst); got != int(want.dist[src]) {
			return fmt.Sprintf("PathLen(%d) = %d, want %d", src, got, want.dist[src])
		}
		cands = e.AppendCandidates(cands[:0], layer, src, dst)
		if !slices.Equal(cands, want.candidates(src)) {
			return fmt.Sprintf("candidates(%d) = %v, want %v", src, cands, want.candidates(src))
		}
		if h := e.Hops(layer, src, dst); h.Len() != len(cands) {
			return fmt.Sprintf("Hops(%d).Len() = %d, want %d", src, h.Len(), len(cands))
		}
	}
	if got := e.table(layer, dst).cands; int(got) != len(want.cand) {
		return fmt.Sprintf("table counts %d candidates, want %d", got, len(want.cand))
	}
	return ""
}

// requireMatchesReference builds every destination's table of (g, mask)
// with the bitset builder — BuildAll(1): one scratch reused throughout —
// and compares each against the scalar oracle. The engine indexes g as it
// arrives; only then is g's adjacency sorted, which is what the oracle needs
// to produce ascending candidates.
func requireMatchesReference(t *testing.T, g *graph.Graph, mask []bool) {
	t.Helper()
	e := NewEngine(g, [][]bool{mask}, 1)
	e.BuildAll(1)
	g.SortAdjacency()
	for dst := 0; dst < g.N(); dst++ {
		if d := diffTable(e, 0, dst, referenceTable(g, mask, dst)); d != "" {
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

// smallTopology builds kind at the small size class; JF is the Jellyfish
// equivalent of the small SF.
func smallTopology(kind string, rng *rand.Rand) (*topo.Topology, error) {
	if kind != "JF" {
		return topo.Family(kind, topo.Small, rng)
	}
	sf, err := topo.Family("SF", topo.Small, rng)
	if err != nil {
		return nil, err
	}
	return topo.EquivalentJellyfish(sf, rng)
}

func randomMask(m int, rho float64, rng *rand.Rand) []bool {
	mask := make([]bool, m)
	for id := range mask {
		mask[id] = rng.Float64() < rho
	}
	return mask
}

// formatEdgeCases are the graphs that stress the table format rather than
// the BFS: masks wider than one unit, an engine neighbour order that is not
// the insertion order, distance bytes past saturation, a router with no
// links. Each call builds a fresh graph, adjacency unsorted.
var formatEdgeCases = []struct {
	name  string
	build func() *graph.Graph
}{
	{"clique-70", func() *graph.Graph { // degree 70: five mask units
		g := graph.New(71)
		for u := 0; u < 71; u++ {
			for v := u + 1; v < 71; v++ {
				g.AddEdge(u, v)
			}
		}
		return g
	}},
	{"descending-insertion", func() *graph.Graph { // every adjacency list in descending ID
		rng := graph.NewRand(41)
		g := graph.New(40)
		for u := 39; u >= 0; u-- {
			for v := 39; v > u; v-- {
				if rng.Float64() < 0.2 {
					g.AddEdge(v, u)
				}
			}
		}
		return g
	}},
	{"path-300", func() *graph.Graph { // distances to 299, past distCap
		g := graph.New(300)
		for v := 1; v < 300; v++ {
			g.AddEdge(v-1, v)
		}
		return g
	}},
	{"isolated-router", func() *graph.Graph { // router 4 has no links at all
		g := graph.New(5)
		g.AddEdge(2, 0)
		g.AddEdge(3, 2)
		g.AddEdge(1, 0)
		g.AddEdge(3, 1)
		return g
	}},
}

// TestBuildTableMatchesReference is the differential test of the routing
// core: the bitset builder, read back through the engine's accessors,
// against the scalar oracle on distances and candidate lists, over router
// counts on both sides of every word boundary, full and sparsified layers,
// layers cut into components (unreachable sources: PathLen -1, no
// candidates), every topology family at its smallest size, and the format's
// edge cases.
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
				e := NewEngine(g, [][]bool{cut}, 1)
				if e.PathLen(0, nr-1, 0) != -1 || e.Hops(0, nr-1, 0).Len() != 0 {
					t.Fatalf("isolated router: PathLen %d, candidates %v", e.PathLen(0, nr-1, 0), e.Candidates(0, nr-1, 0))
				}
			}
		})
	}
	for _, kind := range []string{"SF", "DF", "HX", "XP", "FT3", "JF", "Clique"} {
		tp, err := smallTopology(kind, graph.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(kind+"/full", func(t *testing.T) { requireMatchesReference(t, tp.G, nil) })
		mask := randomMask(tp.G.M(), 0.6, rng)
		t.Run(kind+"/rho=0.6", func(t *testing.T) { requireMatchesReference(t, tp.G, mask) })
	}
	for _, c := range formatEdgeCases {
		t.Run(c.name+"/full", func(t *testing.T) { requireMatchesReference(t, c.build(), nil) })
		g := c.build()
		mask := randomMask(g.M(), 0.6, rng)
		t.Run(c.name+"/rho=0.6", func(t *testing.T) { requireMatchesReference(t, g, mask) })
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
	e := NewEngine(g, [][]bool{nil}, 1)
	if got, want := e.Candidates(0, 5, 0), []int32{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("candidates of 5 toward 0 = %v, want %v", got, want)
	}
	if ref := referenceTable(g, nil, 0).candidates(5); !slices.Equal(ref, []int32{4, 3, 2, 1}) {
		t.Fatalf("oracle on unsorted adjacency = %v; the test no longer distinguishes the two orders", ref)
	}
	g.SortAdjacency()
	if d := diffTable(e, 0, 0, referenceTable(g, nil, 0)); d != "" {
		t.Fatalf("after SortAdjacency the oracle must agree: %s", d)
	}
}

// fuzzCase decodes arbitrary bytes into a graph (adjacency in insertion
// order), a layer mask (nil when bit 0 of the first byte is clear) and a
// destination. Bit 1 of the first byte asks for 256 more routers, chained
// into a path 0–1–…–nr-1 first and enabled in the mask: edge endpoints are
// single bytes, so nothing else reaches past router 255.
func fuzzCase(data []byte) (g *graph.Graph, mask []bool, dst int) {
	if len(data) < 3 {
		return nil, nil, 0
	}
	useMask := data[0]&1 == 1
	nr := int(data[1])%130 + 1
	if data[0]&2 != 0 {
		nr += 256
	}
	dst = int(data[2]) % nr
	g = graph.New(nr)
	if data[0]&2 != 0 {
		for v := 1; v < nr; v++ {
			g.AddEdge(v-1, v)
			if useMask {
				mask = append(mask, true)
			}
		}
	}
	for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
		if g.TryAddEdge(int(rest[0])%nr, int(rest[1])%nr) && useMask {
			mask = append(mask, rest[2]&3 != 0)
		}
	}
	if useMask && mask == nil {
		mask = []bool{}
	}
	return g, mask, dst
}

// fuzzCut decodes the failure set of FuzzBuildTable's repair mode from the
// first byte: 1 + bits 2–3 edges, at consecutive IDs (mod m) from bits 4–7.
func fuzzCut(data []byte, m int) []int {
	cut := make([]int, 0, 4)
	for k := 0; k <= int(data[0]>>2&3); k++ {
		cut = append(cut, (int(data[0]>>4)+k)%m)
	}
	return cut
}

// FuzzBuildTable feeds arbitrary (edge list, mask, destination) triples to
// both kernels — a lazy engine's first touch (buildTable) and a BuildAll'd
// engine's block (buildBlock) — and checks each against the scalar oracle
// and the two tables against each other. Then, repair vs fresh build: it
// cuts 1–4 edges (fuzzCut) and holds the destination's table on a
// WithoutEdges view of each engine, and of an engine with no table, to
// buildTable on G∖F bit for bit. Seed corpus: testdata/fuzz/FuzzBuildTable,
// with router counts at the 64-destination block boundaries (block-64,
// block-65, block-129) and repairs that leave routers affected
// (repair-affected), unreachable (repair-unreachable) and past distCap
// (repair-saturated).
func FuzzBuildTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, mask, dst := fuzzCase(data)
		if g == nil {
			return
		}
		lazy := NewEngine(g, [][]bool{mask}, 1)
		eager := NewEngine(g, [][]bool{mask}, 1)
		eager.BuildAll(2)
		g.SortAdjacency() // for the oracle; the engines have their own neighbour order by now
		want := referenceTable(g, mask, dst)
		for _, k := range []struct {
			name string
			e    *Engine
		}{{"lazy", lazy}, {"BuildAll", eager}} {
			if d := diffTable(k.e, 0, dst, want); d != "" {
				t.Fatalf("%s: nr=%d m=%d dst=%d masked=%v: %s", k.name, g.N(), g.M(), dst, mask != nil, d)
			}
		}
		if !reflect.DeepEqual(lazy.table(0, dst), eager.table(0, dst)) {
			t.Fatalf("nr=%d dst=%d: lazy and BuildAll tables differ", g.N(), dst)
		}
		if g.M() == 0 {
			return
		}
		cut := fuzzCut(data, g.M())
		keep := make([]bool, g.M())
		for id := range keep {
			keep[id] = mask == nil || mask[id]
		}
		for _, id := range cut {
			keep[id] = false
		}
		fresh := buildTable((&layerAdj{g: g, mask: keep}).get(), lazy.base.get(), g.N(), lazy.units, dst)
		for _, k := range []struct {
			name string
			e    *Engine
		}{{"lazy", lazy}, {"BuildAll", eager}, {"unbuilt", NewEngine(g, [][]bool{mask}, 1)}} {
			if got := k.e.WithoutEdges(cut).table(0, dst); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("%s root: nr=%d m=%d dst=%d cut=%v masked=%v: repaired table differs from a fresh build on G∖F",
					k.name, g.N(), g.M(), dst, cut, mask != nil)
			}
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
						e.table(l, d)
					}
					seen[w] = append(seen[w], &e.adj[l].get()[0])
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
				if diff := diffTable(e, l, d, referenceTable(sf.G, masks[l], d)); diff != "" {
					t.Fatalf("round %d table (%d,%d): %s", round, l, d, diff)
				}
			}
		}
	}
}

// TestWithoutEdgesOfUnbuiltRoot derives a view of a root that was never
// built. The derivation completes the root with BuildAll, so the census
// covers all L·Nr tables; and neither the block kernel nor the view's
// repairs fill an adjacency index: the view holds none, and the root's
// stay empty. Every table of the root, and of the view whether repaired on
// lookup or built by its own BuildAll, must equal the oracle's.
func TestWithoutEdgesOfUnbuiltRoot(t *testing.T) {
	g := randomSortedGraph(40, 0.2, graph.NewRand(5))
	with0 := make([]bool, g.M()) // a proper subset that still contains edge 0
	for id := range with0 {
		with0[id] = id != 1
	}
	without0 := make([]bool, g.M())
	for id := range without0 {
		without0[id] = id != 0
	}
	masks := [][]bool{nil, with0, without0}
	parent := NewEngine(g, masks, 1)
	derived := parent.WithoutEdges([]int{0})
	if s, i := derived.Repair(); s+i != len(masks)*g.N() || i == 0 {
		t.Fatalf("Repair() = %d shared + %d invalidated, want L·Nr = %d with some invalidated", s, i, len(masks)*g.N())
	}
	if derived.adj != nil || derived.base != nil {
		t.Fatal("the view holds an adjacency index")
	}
	for l := range masks { // every table the view cannot share, repaired
		for d := 0; d < g.N(); d++ {
			derived.table(l, d)
		}
	}
	for l := range masks {
		if parent.adj[l].rows != nil {
			t.Fatalf("layer %d's adjacency index filled", l)
		}
	}
	eager := parent.WithoutEdges([]int{0}) // the block kernel, with the cuts filtered out
	eager.BuildAll(2)
	for l, mask := range parent.masks {
		for d := 0; d < g.N(); d++ {
			if diff := diffTable(parent, l, d, referenceTable(g, mask, d)); diff != "" {
				t.Fatalf("parent table (%d,%d): %s", l, d, diff)
			}
			for _, v := range []*Engine{derived, eager} {
				if diff := diffTable(v, l, d, referenceTable(g, layerMask(v, l), d)); diff != "" {
					t.Fatalf("derived table (%d,%d): %s", l, d, diff)
				}
			}
		}
	}
}

// layerMask returns e's layer l as an edge mask: on a view, the root's
// layer without the failed edges.
func layerMask(e *Engine, l int) []bool {
	if e.root == nil {
		return e.masks[l]
	}
	mask := make([]bool, e.g.M())
	for id := range mask {
		mask[id] = e.masks[l] == nil || e.masks[l][id]
	}
	for _, id := range e.failed {
		mask[id] = false
	}
	return mask
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
		// the repair index's parity slice,
		// and per worker a goroutine and a scratch that grows a few times.
		const perEngine = 40
		if allocs > 2*tables+perEngine {
			t.Errorf("BuildAll(%d): %.0f allocations for %.0f tables, want <= 2 per table + %d", workers, allocs, tables, perEngine)
		}
		t.Logf("BuildAll(%d): %.0f allocations for %.0f tables", workers, allocs, tables)
	}
}
