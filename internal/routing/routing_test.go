package routing

import (
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topo"
)

// testMasks builds layer masks over g: layer 0 full (nil), the rest random
// edge subsets at the given density.
func testMasks(g *graph.Graph, n int, rho float64, rng *rand.Rand) [][]bool {
	masks := make([][]bool, n)
	for l := 1; l < n; l++ {
		masks[l] = randomMask(g.M(), rho, rng)
	}
	return masks
}

func testEngine(t *testing.T, seed int64) (*Engine, *graph.Graph) {
	t.Helper()
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	masks := testMasks(sf.G, 4, 0.7, graph.NewRand(99))
	return NewEngine(sf.G, masks, seed), sf.G
}

// requireEqualEngines asserts two engines produce byte-identical tables
// for every (layer, destination).
func requireEqualEngines(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.NumLayers() != b.NumLayers() || a.nr != b.nr {
		t.Fatalf("shape mismatch: %d/%d layers, %d/%d routers", a.NumLayers(), b.NumLayers(), a.nr, b.nr)
	}
	for l := 0; l < a.NumLayers(); l++ {
		for d := 0; d < a.nr; d++ {
			ta, tb := a.table(l, d), b.table(l, d)
			if !reflect.DeepEqual(ta, tb) {
				t.Fatalf("table (%d,%d) differs", l, d)
			}
		}
	}
}

func TestLazyVsEagerIdentical(t *testing.T) {
	lazy, _ := testEngine(t, 3)
	eager, _ := testEngine(t, 3)
	eager.BuildAll(8)
	// Touch the lazy engine in a scrambled destination order first, so any
	// build-order dependence would surface.
	rng := graph.NewRand(1)
	for _, d := range rng.Perm(lazy.nr) {
		for l := lazy.NumLayers() - 1; l >= 0; l-- {
			lazy.table(l, d)
		}
	}
	requireEqualEngines(t, lazy, eager)
}

func TestBuildAllWorkerCountsIdentical(t *testing.T) {
	serial, _ := testEngine(t, 5)
	serial.BuildAll(1)
	par, _ := testEngine(t, 5)
	par.BuildAll(7)
	requireEqualEngines(t, serial, par)
}

// TestConcurrentFirstTouch hammers lazy first-touch builds from many
// goroutines (built outside any lock, published by compare-and-swap) and
// checks the result matches a serial build. Run under -race in CI.
func TestConcurrentFirstTouch(t *testing.T) {
	ref, _ := testEngine(t, 7)
	ref.BuildAll(1)
	shared, _ := testEngine(t, 7)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := graph.NewRand(int64(w))
			for i := 0; i < 200; i++ {
				l := rng.Intn(shared.NumLayers())
				d := rng.Intn(shared.nr)
				shared.table(l, d)
				shared.Next(l, rng.Intn(shared.nr), d)
			}
		}(w)
	}
	wg.Wait()
	for l := 0; l < ref.NumLayers(); l++ {
		for d := 0; d < ref.nr; d++ {
			if !reflect.DeepEqual(ref.table(l, d), shared.table(l, d)) {
				t.Fatalf("concurrent build of (%d,%d) differs from serial", l, d)
			}
		}
	}
}

func TestNextIsDeterministicCandidate(t *testing.T) {
	e, _ := testEngine(t, 11)
	e2, _ := testEngine(t, 11)
	e2.BuildAll(4)
	for l := 0; l < e.NumLayers(); l++ {
		for s := 0; s < e.nr; s += 3 {
			for d := 0; d < e.nr; d += 5 {
				nh := e.Next(l, s, d)
				if nh != e2.Next(l, s, d) {
					t.Fatalf("Next(%d,%d,%d) differs across builds", l, s, d)
				}
				cands := e.Candidates(l, s, d)
				if len(cands) == 0 {
					if nh != -1 {
						t.Fatalf("Next(%d,%d,%d)=%d with no candidates", l, s, d, nh)
					}
					continue
				}
				if !slices.Contains(cands, nh) {
					t.Fatalf("Next(%d,%d,%d)=%d not a candidate", l, s, d, nh)
				}
			}
		}
	}
	// A different seed must flip at least one tie. A Slim Fly's full layer
	// has essentially no minimal-path ties (the paper's point), so check on
	// a HyperX, where most pairs have several dimension-order candidates.
	hx, err := topo.HyperX(3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ea := NewEngine(hx.G, make([][]bool, 1), 1)
	eb := NewEngine(hx.G, make([][]bool, 1), 2)
	changed := false
	for s := 0; s < ea.nr && !changed; s++ {
		for d := 0; d < ea.nr; d++ {
			if ea.Next(0, s, d) != eb.Next(0, s, d) {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Fatal("tie-breaking ignores the seed")
	}
}

func TestDistMatchesBFS(t *testing.T) {
	e, g := testEngine(t, 13)
	for d := 0; d < g.N(); d += 7 {
		dist := g.BFS(d)
		for s := 0; s < g.N(); s++ {
			if e.PathLen(0, s, d) != int(dist[s]) {
				t.Fatalf("PathLen(0,%d,%d)=%d, BFS says %d", s, d, e.PathLen(0, s, d), dist[s])
			}
		}
	}
}

func TestRouteCountsMatchShortestPathDAG(t *testing.T) {
	e, g := testEngine(t, 17)
	for d := 0; d < g.N(); d += 11 {
		counts := e.RouteCounts(0, d)
		_, want := g.ShortestPathDAGCounts(d, 0)
		for s := 0; s < g.N(); s++ {
			if counts[s] != want[s] {
				t.Fatalf("RouteCounts(0,%d)[%d]=%d, DAG count %d", d, s, counts[s], want[s])
			}
		}
	}
}

// TestClosedFormOracles holds route and disjoint-path counts to what the
// topology's structure proves. Each dimension of HyperX(L=3, S=4) is a
// clique, so a pair at Hamming distance d has d! minimal routes, one per
// order of fixing the differing coordinates, and d edge-disjoint paths of
// at most d hops, one per dimension fixed first; every pair has edge
// connectivity L·(S−1) = 9, the degree. A pair of the 16-router clique
// (k' = 15) has c1 = 1, its link, and c2 = k' = 15: the link and one
// two-hop path through each other router. In FatTree3(m=4, o=1) two edge
// routers in different pods have m² minimal routes (any aggregation router
// of the source pod, then any core of its group) and m edge-disjoint
// four-hop paths, one per uplink; two in one pod have m of each, one per
// aggregation router.
func TestClosedFormOracles(t *testing.T) {
	hx, err := topo.HyperX(3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(hx.G, make([][]bool, 1), 1)
	factorial := []int64{1, 1, 2, 6}
	for dst := 0; dst < hx.Nr(); dst++ {
		counts := e.RouteCounts(0, dst)
		for src := 0; src < hx.Nr(); src++ {
			if src == dst {
				continue
			}
			d := 0
			for a, b := src, dst; a > 0 || b > 0; a, b = a/4, b/4 {
				if a%4 != b%4 {
					d++
				}
			}
			if counts[src] != factorial[d] {
				t.Errorf("HX %d->%d at Hamming distance %d: %d minimal routes, want %d", src, dst, d, counts[src], factorial[d])
			}
			if c := hx.G.DisjointPathsBounded([]int{src}, []int{dst}, graph.DisjointPathsOpts{MaxLen: d}); c != d {
				t.Errorf("HX %d->%d at Hamming distance %d: c_%d = %d, want %d", src, dst, d, d, c, d)
			}
			if src < dst {
				if c := hx.G.EdgeConnectivityPair(src, dst); c != 9 {
					t.Errorf("HX %d-%d: edge connectivity %d, want L·(S-1) = 9", src, dst, c)
				}
			}
		}
	}
	const m = 4
	ft, err := topo.FatTree3(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe := NewEngine(ft.G, make([][]bool, 1), 1)
	var edges []int // the edge routers: the first m of each pod's 2m
	for r := 0; r < 2*m*2*m; r++ {
		if r%(2*m) < m {
			edges = append(edges, r)
		}
	}
	for _, dst := range edges {
		counts := fe.RouteCounts(0, dst)
		for _, src := range edges {
			if src == dst {
				continue
			}
			routes, hops := int64(m*m), 4
			if src/(2*m) == dst/(2*m) {
				routes, hops = m, 2
			}
			if counts[src] != routes {
				t.Errorf("FT3 edge %d->%d: %d minimal routes, want %d", src, dst, counts[src], routes)
			}
			if c := ft.G.DisjointPathsBounded([]int{src}, []int{dst}, graph.DisjointPathsOpts{MaxLen: hops}); c != m {
				t.Errorf("FT3 edge %d->%d: c_%d = %d, want %d", src, dst, hops, c, m)
			}
		}
	}
	cl, err := topo.Complete(15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NominalRadix != 15 {
		t.Fatalf("Complete(15, 0) has k' = %d", cl.NominalRadix)
	}
	for src := 0; src < cl.Nr(); src++ {
		for dst := 0; dst < cl.Nr(); dst++ {
			if src == dst {
				continue
			}
			c1 := cl.G.DisjointPathsBounded([]int{src}, []int{dst}, graph.DisjointPathsOpts{MaxLen: 1})
			c2 := cl.G.DisjointPathsBounded([]int{src}, []int{dst}, graph.DisjointPathsOpts{MaxLen: 2})
			if c1 != 1 || c2 != 15 {
				t.Errorf("clique %d->%d: c1 = %d, c2 = %d, want 1 and 15", src, dst, c1, c2)
			}
		}
	}
}

// TestDistinctRoutesMatchesBruteForce holds DistinctRoutes against the
// map of (first hop, length) pairs read off PathLen and AppendCandidates,
// on every router pair of engines whose sparse layers leave routing holes
// and give one pair routes of several lengths: SF(5), and a 71-clique whose
// candidate masks span five units.
func TestDistinctRoutesMatchesBruteForce(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		rho  float64
	}{{"SF5", sf.G, 0.3}, {"clique-70", formatEdgeCases[0].build(), 0.05}} {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(g, testMasks(g, 6, c.rho, graph.NewRand(7)), 1)
			type route struct {
				first int32
				hops  int
			}
			holes, multiLength := 0, 0
			var cands []int32
			for src := 0; src < g.N(); src++ {
				for dst := 0; dst < g.N(); dst++ {
					want := map[route]bool{}
					lens := map[int]bool{}
					for l := 0; l < e.NumLayers(); l++ {
						d := e.PathLen(l, src, dst)
						if d < 0 {
							holes++
							continue
						}
						cands = e.AppendCandidates(cands[:0], l, src, dst)
						for _, c := range cands {
							want[route{c, d}] = true
							lens[d] = true
						}
					}
					if len(lens) > 1 {
						multiLength++
					}
					if got := e.DistinctRoutes(src, dst); got != len(want) {
						t.Fatalf("DistinctRoutes(%d,%d) = %d, brute force %d", src, dst, got, len(want))
					}
				}
			}
			if holes == 0 || multiLength == 0 {
				t.Fatalf("layers too dense to test: %d holes, %d pairs with several lengths", holes, multiLength)
			}
		})
	}
}

func TestWithoutEdgesIncremental(t *testing.T) {
	parent, g := testEngine(t, 19)
	parent.BuildAll(4)
	failed := []int{0, 1, 2}

	derived := parent.WithoutEdges(failed)
	// Ground truth: a fresh engine over the already-masked edge sets.
	masks := testMasks(g, 4, 0.7, graph.NewRand(99))
	fresh := make([][]bool, len(masks))
	for l, m := range masks {
		fm := make([]bool, g.M())
		for id := range fm {
			fm[id] = m == nil || m[id]
		}
		for _, id := range failed {
			fm[id] = false
		}
		fresh[l] = fm
	}
	want := NewEngine(g, fresh, 19)
	requireEqualEngines(t, derived, want)

	// Sharing: unaffected tables are the parent's very pointers; tables
	// whose minimal-path DAG used a failed edge were dropped and rebuilt.
	shared, rebuilt := 0, 0
	for l := 0; l < parent.NumLayers(); l++ {
		for d := 0; d < parent.nr; d++ {
			if derived.table(l, d) == parent.table(l, d) {
				shared++
			} else {
				rebuilt++
			}
		}
	}
	if shared == 0 {
		t.Fatal("incremental repair shared no tables")
	}
	if rebuilt == 0 {
		t.Fatal("removing minimal-layer edges must invalidate some tables")
	}
	// The failed edges are tight toward their own endpoints in the full
	// layer, so those destinations must have been rebuilt.
	e0 := g.Edge(0)
	if derived.table(0, int(e0.U)) == parent.table(0, int(e0.U)) {
		t.Fatal("table toward a failed edge's endpoint must be invalidated")
	}
	// And no repaired table offers a failed edge as a candidate.
	for l := 0; l < derived.NumLayers(); l++ {
		for d := 0; d < derived.nr; d++ {
			for _, id := range failed {
				e := g.Edge(id)
				if slices.Contains(derived.Candidates(l, int(e.U), d), e.V) || slices.Contains(derived.Candidates(l, int(e.V), d), e.U) {
					t.Fatalf("repaired table (%d,%d) still uses failed edge %d", l, d, id)
				}
			}
		}
	}
}

func TestStatCountsMaterialization(t *testing.T) {
	e, _ := testEngine(t, 23)
	if st := e.Stat(); st.TablesBuilt != 0 || st.TablesTotal != e.NumLayers()*e.nr {
		t.Fatalf("fresh engine stat %+v", st)
	}
	e.table(0, 5)
	e.table(2, 7)
	st := e.Stat()
	if st.TablesBuilt != 2 {
		t.Fatalf("built %d tables, want 2", st.TablesBuilt)
	}
	if st.CandEntries <= 0 {
		t.Fatal("built tables must contribute candidate entries")
	}
	e.BuildAll(0)
	if st := e.Stat(); st.TablesBuilt != st.TablesTotal {
		t.Fatalf("BuildAll left %d of %d tables unbuilt", st.TablesTotal-st.TablesBuilt, st.TablesTotal)
	}
}

// TestFullEquivalenceRouting is the exhaustive companion of the sampled
// determinism tests above, wired into the same FATPATHS_FULL_EQUIV harness
// as the experiment-level equivalence suite: several topologies, every
// build strategy (lazy scrambled, eager at 1/2/4/8 workers), byte-compared.
func TestFullEquivalenceRouting(t *testing.T) {
	if os.Getenv("FATPATHS_FULL_EQUIV") == "" {
		t.Skip("set FATPATHS_FULL_EQUIV=1 for the exhaustive routing determinism sweep")
	}
	rng := graph.NewRand(4)
	tops := map[string]*graph.Graph{}
	if sf, err := topo.SlimFly(7, 0); err == nil {
		tops["SF7"] = sf.G
	}
	if df, err := topo.Dragonfly(3); err == nil {
		tops["DF3"] = df.G
	}
	if hx, err := topo.HyperX(3, 4, 0); err == nil {
		tops["HX34"] = hx.G
	}
	for name, g := range tops {
		masks := testMasks(g, 5, 0.6, graph.NewRand(8))
		ref := NewEngine(g, masks, 77)
		ref.BuildAll(1)
		for _, workers := range []int{2, 4, 8} {
			e := NewEngine(g, masks, 77)
			e.BuildAll(workers)
			t.Run(name, func(t *testing.T) { requireEqualEngines(t, ref, e) })
		}
		lazy := NewEngine(g, masks, 77)
		for _, d := range rng.Perm(g.N()) {
			for l := 0; l < lazy.NumLayers(); l++ {
				lazy.table(l, d)
			}
		}
		t.Run(name+"/lazy", func(t *testing.T) { requireEqualEngines(t, ref, lazy) })
	}
}

func TestRoutingMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := testEngine(t, 29)
	e.SetMetrics(obs.NewRoutingMetrics(reg))

	e.table(0, 3)
	e.table(0, 3) // second lookup hits the cache, builds nothing
	e.table(1, 4)
	snap := reg.Snapshot()
	if got := snap[obs.MetricRoutingTablesBuilt]; got != 2 {
		t.Fatalf("tables_built = %d, want 2", got)
	}
	if snap[obs.MetricRoutingCSREntries] <= 0 {
		t.Fatal("csr_entries_deployed must grow with built tables")
	}

	// Only the builder whose table is published counts: goroutines racing
	// to first-touch one slot add one table between them, and after
	// BuildAll the counters equal the engine's own census.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.table(2, 5)
		}()
	}
	wg.Wait()
	if got := reg.Snapshot()[obs.MetricRoutingTablesBuilt]; got != 3 {
		t.Fatalf("tables_built = %d after racing first touches of one slot, want 3", got)
	}
	e.BuildAll(2)
	st := e.Stat()
	snap = reg.Snapshot()
	if snap[obs.MetricRoutingTablesBuilt] != int64(st.TablesBuilt) || snap[obs.MetricRoutingCSREntries] != st.CandEntries {
		t.Fatalf("tables_built %d, csr_entries_deployed %d; the engine holds %d tables, %d entries",
			snap[obs.MetricRoutingTablesBuilt], snap[obs.MetricRoutingCSREntries], st.TablesBuilt, st.CandEntries)
	}

	// WithoutEdges repairs report, against the parent's BUILT tables, how
	// many were shared untouched vs dropped for rebuild — and the derived
	// engine keeps accumulating into the same registry.
	built := snap[obs.MetricRoutingTablesBuilt]
	derived := e.WithoutEdges([]int{0, 1})
	snap = reg.Snapshot()
	inval, shared := snap[obs.MetricRoutingInvalidated], snap[obs.MetricRoutingShared]
	if inval == 0 {
		t.Fatal("removing live edges must invalidate some tables")
	}
	if shared == 0 {
		t.Fatal("incremental repair must share unaffected tables")
	}
	if total := int64(e.NumLayers() * e.nr); inval+shared != total {
		t.Fatalf("invalidated(%d) + shared(%d) != built tables (%d)", inval, shared, total)
	}
	derived.table(0, 0)
	if got := reg.Snapshot()[obs.MetricRoutingTablesBuilt]; got <= built {
		t.Fatal("derived engine must inherit the parent's metrics bundle")
	}
}

// freshEngineWithout builds, from nothing, an engine on g minus the failed
// edges: a graph of its own (edge IDs renumbered, g's edge order kept) with
// the masks carried over to the new IDs. Out-of-range IDs are ignored.
func freshEngineWithout(g *graph.Graph, masks [][]bool, failed []int, seed int64) *Engine {
	gone := make([]bool, g.M())
	for _, id := range failed {
		if id >= 0 && id < g.M() {
			gone[id] = true
		}
	}
	h := graph.New(g.N())
	hmasks := make([][]bool, len(masks))
	for l, m := range masks {
		if m != nil {
			hmasks[l] = []bool{}
		}
	}
	for id, ed := range g.Edges() {
		if gone[id] {
			continue
		}
		h.AddEdge(int(ed.U), int(ed.V))
		for l, m := range masks {
			if m != nil {
				hmasks[l] = append(hmasks[l], m[id])
			}
		}
	}
	return NewEngine(h, hmasks, seed)
}

// requireSameAnswers asserts two engines over the same routers answer
// every (layer, src, dst) alike: Next, PathLen and the candidate set as
// router IDs. The engines may sit on different graphs, so neighbour
// positions need not agree — only what they decode to.
func requireSameAnswers(t *testing.T, got, want *Engine) {
	t.Helper()
	var a, b []int32
	for l := 0; l < want.NumLayers(); l++ {
		for s := 0; s < want.nr; s++ {
			for d := 0; d < want.nr; d++ {
				if g, w := got.Next(l, s, d), want.Next(l, s, d); g != w {
					t.Fatalf("Next(%d,%d,%d) = %d, want %d", l, s, d, g, w)
				}
				if g, w := got.PathLen(l, s, d), want.PathLen(l, s, d); g != w {
					t.Fatalf("PathLen(%d,%d,%d) = %d, want %d", l, s, d, g, w)
				}
				a, b = got.AppendCandidates(a[:0], l, s, d), want.AppendCandidates(b[:0], l, s, d)
				if !slices.Equal(a, b) {
					t.Fatalf("candidates(%d,%d,%d) = %v, want %v", l, s, d, a, b)
				}
			}
		}
	}
}

// repairCase is one (graph, failure set) of the WithoutEdges tests.
type repairCase struct {
	g      *graph.Graph
	masks  [][]bool // four layers, the first full
	failed []int    // what the view fails
	second []int    // what a view of the view fails on top
	i      int      // the failure set's index within its graph
}

// forEachRepairCase runs fn as one subtest per (graph, failure set): SF
// q=5, a Jellyfish, FT3 m=4 and two random graphs, each against empty,
// single, noisy (duplicates, out-of-range IDs), random, router-isolating,
// bisecting and total F. The graphs, masks and sets come from rng, which fn
// may draw from as well.
func forEachRepairCase(t *testing.T, rng *rand.Rand, fn func(t *testing.T, c repairCase)) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := topo.Jellyfish(50, 7, 1, graph.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topo.FatTree3(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"SF q=5", sf.G}, {"JF", jf.G}, {"FT3 m=4", ft.G},
		{"random-40", randomSortedGraph(40, 0.15, rng)}, {"random-70", randomSortedGraph(70, 0.08, rng)},
	} {
		g, m, nr := tc.g, tc.g.M(), tc.g.N()
		masks := testMasks(g, 4, 0.7, rng)
		var isolate, bisect, all []int
		for id, ed := range g.Edges() {
			all = append(all, id)
			if ed.U == 3 || ed.V == 3 {
				isolate = append(isolate, id)
			}
			if (int(ed.U) < nr/2) != (int(ed.V) < nr/2) {
				bisect = append(bisect, id)
			}
		}
		a, b := rng.Intn(m), rng.Intn(m)
		second := rng.Perm(m)[:m/20]
		for i, f := range []struct {
			name   string
			failed []int
		}{
			{"empty", []int{}}, {"single", []int{a}}, {"noisy", []int{b, -1, a, m, b, m + 5, a}},
			{"random", rng.Perm(m)[:m/10]}, {"isolate", isolate}, {"bisect", bisect}, {"all", all},
		} {
			t.Run(tc.name+"/"+f.name, func(t *testing.T) {
				fn(t, repairCase{g: g, masks: masks, failed: f.failed, second: second, i: i})
			})
		}
	}
}

// TestWithoutEdgesMatchesFreshEngine is the differential test of the repair
// path: WithoutEdges(F) against an engine built from nothing on the graph
// G∖F, for every forEachRepairCase, from fully built parents and from
// partly built ones the derivation completes, with the view's tables
// rebuilt lazily or by BuildAll, and once more for a
// view of a view. The fresh engine's graph has other edge IDs and other
// neighbour positions than the parent's, so the comparison also covers the
// position ↔ router mapping.
func TestWithoutEdgesMatchesFreshEngine(t *testing.T) {
	rng := graph.NewRand(24)
	forEachRepairCase(t, rng, func(t *testing.T, c repairCase) {
		nr := c.g.N()
		parent := NewEngine(c.g, c.masks, 9)
		if c.i%2 == 0 {
			parent.BuildAll(2)
		} else { // a third of the tables, scattered
			for slot := range parent.tables {
				if rng.Intn(3) == 0 {
					parent.table(slot/nr, slot%nr)
				}
			}
		}
		derived := parent.WithoutEdges(c.failed) // completes a partly built parent
		if shared, invalidated := derived.Repair(); shared+invalidated != len(parent.tables) {
			t.Fatalf("Repair() = %d shared + %d invalidated, want L·Nr = %d", shared, invalidated, len(parent.tables))
		}
		if c.i%4 < 2 { // and the others rebuild lazily
			requireBuildAllKeepsShared(t, parent, derived)
		}
		requireSameAnswers(t, derived, freshEngineWithout(c.g, c.masks, c.failed, 9))
		// A view of the view: it derives from the root with both failure
		// sets.
		requireSameAnswers(t, derived.WithoutEdges(c.second),
			freshEngineWithout(c.g, c.masks, slices.Concat(c.failed, c.second), 9))
	})
}

// requireBuildAllKeepsShared runs BuildAll on a WithoutEdges view and
// checks it builds only what the view cannot take from its root: before and
// after, every table the view shares is the root's very pointer; neither
// the view's repair census nor the root's built count moves; and the view
// ends fully built.
func requireBuildAllKeepsShared(t *testing.T, root, view *Engine) {
	t.Helper()
	shared, invalidated := view.Repair()
	rootBuilt := root.Stat().TablesBuilt
	var kept []int
	for slot := range view.NumLayers() * view.nr {
		if tb := view.lookup(slot/view.nr, slot%view.nr); tb != nil {
			if tb != root.tables[slot].Load() {
				t.Fatalf("view holds table %d of its own before building any", slot)
			}
			kept = append(kept, slot)
		}
	}
	if len(kept) != shared {
		t.Fatalf("view can use %d of the root's tables, Repair() says it shares %d", len(kept), shared)
	}
	view.BuildAll(2)
	for _, slot := range kept {
		if view.lookup(slot/view.nr, slot%view.nr) != root.tables[slot].Load() {
			t.Fatalf("BuildAll replaced shared table %d of the view", slot)
		}
	}
	if s, i := view.Repair(); s != shared || i != invalidated {
		t.Fatalf("BuildAll moved Repair() from %d/%d to %d/%d", shared, invalidated, s, i)
	}
	if got := root.Stat().TablesBuilt; got != rootBuilt {
		t.Fatalf("BuildAll on the view built %d tables of the root", got-rootBuilt)
	}
	if st := view.Stat(); st.TablesBuilt != st.TablesTotal {
		t.Fatalf("BuildAll left %d of the view's tables unbuilt", st.TablesTotal-st.TablesBuilt)
	}
}
