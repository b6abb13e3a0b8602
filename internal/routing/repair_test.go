package routing

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// scanStale is the repair census WithoutEdges took before the parity
// index, kept as its oracle: read every table of the complete root and test
// each removed edge live in the table's layer for tightness, one mask bit
// per endpoint. It returns, per slot layer·Nr+dst, whether the view must
// repair the table. Out-of-range IDs are ignored.
func scanStale(root *Engine, failed []int) []bool {
	m := root.g.M()
	stale := make([]bool, len(root.tables))
	for l, mask := range root.masks {
		var removed []maskBit
		for _, id := range failed {
			if id >= 0 && id < m && (mask == nil || mask[id]) {
				ed := root.g.Edge(id)
				removed = append(removed, root.bitFor(ed.U, ed.V), root.bitFor(ed.V, ed.U))
			}
		}
		for d := 0; d < root.nr; d++ {
			stale[l*root.nr+d] = tableUsesAny(root.tables[l*root.nr+d].Load(), removed)
		}
	}
	return stale
}

// tableUsesAny reports whether any of the removed edges is tight in the
// table: removed holds, per edge, each endpoint's mask bit for the other.
func tableUsesAny(t *table, removed []maskBit) bool {
	for _, b := range removed {
		if t.slab[b.unit]&b.bit != 0 {
			return true
		}
	}
	return false
}

// requireCensus derives a view of root without failed, and a view of that
// view without second as well, and holds each one's stale bit of every
// (layer, dst) and its Repair() to the scan of root's tables (a view of a
// view counts against the root), and its Stat().TablesBuilt to the shared
// count. It returns the first view's census.
func requireCensus(t *testing.T, root *Engine, failed, second []int) (shared, invalidated int) {
	t.Helper()
	view := root.WithoutEdges(failed)
	words := (root.nr + 63) / 64
	for _, c := range []struct {
		name   string
		view   *Engine
		failed []int
	}{{"view", view, failed}, {"view of the view", view.WithoutEdges(second), slices.Concat(failed, second)}} {
		wi := 0
		for slot, want := range scanStale(root, c.failed) {
			l, d := slot/root.nr, slot%root.nr
			if got := c.view.stale[l*words+d>>6]>>(d&63)&1 == 1; got != want {
				t.Fatalf("%s: table (%d,%d) has stale bit %v, the table scan says %v", c.name, l, d, got, want)
			}
			if want {
				wi++
			}
		}
		s, i := c.view.Repair()
		if ws := len(root.tables) - wi; s != ws || i != wi {
			t.Fatalf("%s: Repair() = %d shared / %d invalidated, the table scan says %d / %d", c.name, s, i, ws, wi)
		}
		if got := c.view.Stat().TablesBuilt; got != s {
			t.Fatalf("%s: Stat().TablesBuilt = %d after derivation, Repair() shares %d", c.name, got, s)
		}
	}
	return view.Repair()
}

// requireIndex indexes every block of a complete root and holds its parity
// index to its definition: bit dst of router u's word is set iff u lies at
// an odd distance from dst. The census alone cannot see every fault here:
// parity words holding the even levels instead give the same XORs.
func requireIndex(t *testing.T, e *Engine) {
	t.Helper()
	for l := range e.masks {
		for d := 0; d < e.nr; d++ {
			tb := e.tables[l*e.nr+d].Load()
			rows := e.index(l, d>>6).rows
			bit := uint64(1) << (d & 63)
			for u := 0; u < e.nr; u++ {
				dist := e.pathLen(tb, u)
				if got, want := rows[u]&bit != 0, dist > 0 && dist%2 == 1; got != want {
					t.Fatalf("table (%d,%d): router %d at distance %d has parity bit %v", l, d, u, dist, got)
				}
			}
		}
	}
}

// TestRepairCensusMatchesScan holds the parity-index census (every stale
// bit and both counts) against the per-table scan on every
// forEachRepairCase, on a parent with a third of its tables built by first
// touches (the lazy kernel) and the rest by the derivation's BuildAll (the
// block kernel), and the index itself to its definition.
func TestRepairCensusMatchesScan(t *testing.T) {
	var shared, invalidated int
	forEachRepairCase(t, graph.NewRand(24), func(t *testing.T, c repairCase) {
		nr := c.g.N()
		parent := NewEngine(c.g, c.masks, 9)
		pick := graph.NewRand(int64(c.i))
		for slot := range parent.tables {
			if pick.Intn(3) == 0 {
				parent.table(slot/nr, slot%nr)
			}
		}
		s, i := requireCensus(t, parent, c.failed, c.second)
		requireIndex(t, parent)
		shared += s
		invalidated += i
	})
	if shared == 0 || invalidated == 0 {
		t.Fatalf("the cases shared %d and invalidated %d tables; both must occur", shared, invalidated)
	}
}

// TestRepairPastDistCap holds repaired tables to fresh builds where
// distances saturate: on a 512-router ring a cut sends the routers behind
// it the long way round, past distCap, and their new distances come from
// neighbours near the antipode whose bytes are saturated too, so a repair
// that read bytes instead of walking them would mis-settle. A sample of
// destinations' tables on a view, repaired off a built root and off one the
// derivation builds, must equal buildTable on the ring without the cut
// edges.
func TestRepairPastDistCap(t *testing.T) {
	const n = 512
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	for _, cut := range [][]int{{0}, {0, 300}, {100, 101}} {
		keep := make([]bool, g.M())
		for id := range keep {
			keep[id] = !slices.Contains(cut, id)
		}
		rows := (&layerAdj{g: g, mask: keep}).get()
		built := NewEngine(g, [][]bool{nil}, 1)
		built.BuildAll(2)
		for _, root := range []*Engine{built, NewEngine(g, [][]bool{nil}, 1)} {
			view := root.WithoutEdges(cut)
			for d := 0; d < n; d += 17 {
				if got, want := view.table(0, d), buildTable(rows, root.base.get(), n, root.units, d); !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %v, dst %d: repaired table differs from a fresh build", cut, d)
				}
			}
		}
	}
}

// TestViewStaleBitsMatchScan holds a view's stale bit for every (layer,
// dst) to tableUsesAny over the root's table (requireCensus) on the cases
// the census treats apart:
//   - failed edges live in some layers and absent from others, whose
//     parity rows may differ where the edge is absent: on the ring's second
//     layer, a path, edge 100's ends differ toward every destination;
//   - distances past distCap, whose parity the index walks down to;
//   - a view of a view, which the census sees as one failure set;
//   - WithoutEdges(nil), which invalidates nothing and reads no parity
//     column.
//
// Each case derives twice at once from one unbuilt root.
func TestViewStaleBitsMatchScan(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	masks := testMasks(sf.G, 4, 0.7, graph.NewRand(99))
	var partial []int // live in the full layer 0, absent from some other
	for id := 0; id < sf.G.M() && len(partial) < 3; id++ {
		if slices.ContainsFunc(masks[1:], func(m []bool) bool { return !m[id] }) {
			partial = append(partial, id)
		}
	}
	const n = 300
	ring := graph.New(n)
	for v := 0; v < n; v++ {
		ring.AddEdge(v, (v+1)%n)
	}
	path := make([]bool, n)
	for id := range path {
		path[id] = id != 100
	}
	for _, c := range []struct {
		name           string
		root           *Engine
		failed, second []int
		invalidates    bool
	}{
		{"SF partly live", NewEngine(sf.G, masks, 9), partial, []int{partial[0], 7}, true},
		{"ring past distCap", NewEngine(ring, [][]bool{nil, path}, 1), []int{0, 150}, []int{100}, true},
		{"ring absent edge", NewEngine(ring, [][]bool{nil, path}, 1), []int{100}, []int{100, 299}, true},
		{"nil", NewEngine(sf.G, masks, 9), nil, nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Two derivations race the root's single-flight BuildAll and
			// the census's first fill of each parity column.
			for _, side := range []string{"a", "b"} {
				t.Run(side, func(t *testing.T) {
					t.Parallel()
					if _, i := requireCensus(t, c.root, c.failed, c.second); (i > 0) != c.invalidates {
						t.Fatalf("WithoutEdges(%v) invalidated %d tables", c.failed, i)
					}
				})
			}
		})
		for i := range c.root.parity {
			if !c.invalidates && c.root.parity[i].rows != nil {
				t.Fatalf("%s: a census with no failed edge filled a parity column", c.name)
			}
		}
	}
	if e := NewEngine(ring, [][]bool{path}, 1); e.dist(e.table(0, 101), 100) != distCap {
		t.Fatalf("the path's ends are at byte %d; the cases need saturated distances", e.dist(e.table(0, 101), 100))
	}
}

// BenchmarkWithoutEdges times one /whatif derivation on the daemon's two
// resident fabric shapes, fully built: nine layers (the first full, the
// rest random at the default density of the topology family) and 1–4
// failed edges per view, drawn as the daemon benchmark's whatif requests
// draw them. The "+4 lookups" runs then answer four random (layer, src,
// dst) triples on the view as /whatif does — Next, PathLen and the
// candidates — so they include the repair of every invalidated table those
// triples hit.
func BenchmarkWithoutEdges(b *testing.B) {
	sf, err := topo.SlimFly(11, 0)
	if err != nil {
		b.Fatal(err)
	}
	ft, err := topo.FatTree3(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		rho  float64
	}{{"SF q=11", sf.G, 0.6}, {"FT3 m=8", ft.G, 0.9}} {
		e := NewEngine(c.g, testMasks(c.g, 9, c.rho, graph.NewRand(1)), 1)
		e.BuildAll(0)
		rng := graph.NewRand(42)
		sets := make([][]int, 1024)
		triples := make([][4][3]int, len(sets))
		for i := range sets {
			for n := 1 + rng.Intn(4); len(sets[i]) < n; {
				sets[i] = append(sets[i], rng.Intn(c.g.M()))
			}
			for k := range triples[i] {
				triples[i][k] = [3]int{rng.Intn(e.NumLayers()), rng.Intn(e.nr), rng.Intn(e.nr)}
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				e.WithoutEdges(sets[i%len(sets)])
				i++
			}
		})
		b.Run(c.name+" +4 lookups", func(b *testing.B) {
			b.ReportAllocs()
			var buf []int32
			i := 0
			for b.Loop() {
				v := e.WithoutEdges(sets[i%len(sets)])
				for _, q := range triples[i%len(sets)] {
					v.Next(q[0], q[1], q[2])
					v.PathLen(q[0], q[1], q[2])
					buf = v.AppendCandidates(buf[:0], q[0], q[1], q[2])
				}
				i++
			}
		})
	}
}
