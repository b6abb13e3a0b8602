// Package routing is the single source of path truth for the repository:
// per-(layer, destination) multi-next-hop tables in compact CSR form,
// built from the masks of a layer set (internal/layers) and read by the
// packet simulator (internal/netsim), the throughput LPs (internal/mcf), the
// daemon (internal/serve) and the analytics/experiments that want path
// statistics. An Engine is the deployed form of the σ_i functions of §V-A
// (Listing 3): where the paper's listing freezes one random tie per (layer,
// src, dst), it keeps the full within-layer ECMP candidate set (§V-C) and
// exposes both a deterministic representative hop (Next) and the whole set
// (Candidates).
//
// FatPaths routes minimally *within* each layer and load-balances across
// layers (§V of the paper). Minimal routing almost always leaves ties —
// several neighbors one hop closer to the destination — and the paper
// resolves them with ECMP inside the layer (§V-C). Earlier revisions of
// this repository froze one arbitrary tie per (layer, src, dst) in a dense
// n·Nr² array and re-derived the full ECMP sets separately for the
// simulator; this package keeps the whole candidate set once, in CSR form,
// and every consumer reads the same tables.
//
// Tables materialize lazily per destination (only destinations actually
// routed to occupy memory — the big win at paper-scale router counts,
// where a workload touches a small slice of the Nr destinations) or
// eagerly in parallel via BuildAll. Construction is a pure function of
// (graph, layer mask, destination) and tie-breaking folds the engine seed
// with the (layer, src, dst) coordinates, so tables and next-hop picks are
// byte-identical for any worker count and any build order.
//
// Construction is bit-parallel. The networks FatPaths targets have diameter
// 2–3, so a reverse BFS has two or three levels and a candidate set is "the
// neighbors of src one level closer" — a set intersection, not a graph
// walk. Each layer therefore keeps an adjacency bitset index (one Nr-bit
// row per router, built once from (graph, mask) on the layer's first table
// and shared with every WithoutEdges view that leaves the layer untouched);
// buildTable runs a level-synchronous BFS over whole rows and reads each
// candidate set off as adj[src] & level[dist(src)-1].
package routing

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Table is the multi-next-hop table of one (layer, destination) pair: for
// every source router, the hop distance to the destination and the set of
// neighbors one hop closer (the within-layer ECMP candidates), packed in
// CSR form. The three slices are carved from one allocation (Dist, then
// Off, then Cand), each capped at its own length. Tables are immutable once
// published and safe to share.
type Table struct {
	// Dist[src] is the hop count from src to the destination within the
	// layer, or -1 when unreachable (possible in sparse layers).
	Dist []int32
	// Off/Cand is the CSR packing: Cand[Off[src]:Off[src+1]] lists src's
	// candidate next hops in ascending neighbor ID — the order of the
	// generators' sorted adjacency lists (graph.SortAdjacency), guaranteed
	// here whatever order edges were inserted in. The destination itself
	// and unreachable sources have empty candidate sets.
	Off  []int32
	Cand []int32
}

// Candidates returns src's ECMP candidate set. The slice aliases the
// table; callers must not modify it.
func (t *Table) Candidates(src int) []int32 {
	return t.Cand[t.Off[src]:t.Off[src+1]]
}

// numStripes is the build-lock stripe count: first-touch builds of
// different (layer, destination) slots proceed concurrently unless they
// hash to the same stripe, instead of serializing on one global mutex.
const numStripes = 64

// routeCountCap saturates minimal-route counts (RouteCounts) so dense
// graphs cannot overflow int64.
const routeCountCap = int64(1) << 40

// layerAdj is one layer's adjacency bitset index: bit h of row v is set iff
// the edge (v,h) is enabled in the layer. Row v occupies
// rows[v*words:(v+1)*words] with words = ⌈Nr/64⌉, so a materialized layer
// costs Nr·⌈Nr/64⌉·8 bytes. It is filled on the layer's first table build;
// engines whose (graph, mask) for the layer coincide share the holder, so
// whichever of them builds first serves both.
type layerAdj struct {
	once sync.Once
	rows []uint64
}

// Engine computes and caches the tables of one layered routing
// configuration. It is safe for concurrent use: reads are lock-free once a
// table is published, and first-touch builds take a per-slot striped lock.
type Engine struct {
	g     *graph.Graph
	masks [][]bool    // masks[layer]; nil means the full edge set
	adj   []*layerAdj // adj[layer], lazily filled from (g, masks[layer])
	seed  int64
	nr    int

	tables  []atomic.Pointer[Table] // slot = layer*nr + dst
	stripes [numStripes]sync.Mutex

	// shared/invalidated count the parent's built tables a WithoutEdges
	// derivation kept and dropped; zero for an engine from NewEngine.
	shared, invalidated int

	// m, when non-nil, receives routing-core telemetry (tables built, CSR
	// entries deployed, stripe-lock contention samples). All counters fire
	// off the lock-free read fast path — only first-touch builds and
	// WithoutEdges repairs touch them — so a nil m costs nothing per lookup.
	m *obs.RoutingMetrics
}

// SetMetrics attaches a routing telemetry bundle (nil disables). Call
// before sharing the engine across goroutines.
func (e *Engine) SetMetrics(m *obs.RoutingMetrics) { e.m = m }

// NewEngine returns an engine over g with one routing layer per mask
// (masks[l][edgeID] enables the edge in layer l; a nil mask is the full
// layer). seed drives deterministic tie-breaking in Next. Masks are
// treated as read-only and must not be mutated afterwards.
func NewEngine(g *graph.Graph, masks [][]bool, seed int64) *Engine {
	adj := make([]*layerAdj, len(masks))
	for l := range adj {
		adj[l] = new(layerAdj)
	}
	return &Engine{
		g:      g,
		masks:  masks,
		adj:    adj,
		seed:   seed,
		nr:     g.N(),
		tables: make([]atomic.Pointer[Table], len(masks)*g.N()),
	}
}

// NumLayers returns the number of routing layers.
func (e *Engine) NumLayers() int { return len(e.masks) }

// Engine is the identity: nothing in this module calls it. It is still
// declared only because the frozen bench/layers.go spells the engine
// `Fwd.Engine().Stat()`; the [benchmark] PR of ROADMAP item 1(b) deletes it.
func (e *Engine) Engine() *Engine { return e }

// Table returns the (layer, dst) table, building it on first use.
func (e *Engine) Table(layer, dst int) *Table {
	if t := e.tables[layer*e.nr+dst].Load(); t != nil {
		return t
	}
	return e.firstTouch(layer, dst, new(buildScratch))
}

// firstTouch builds and publishes the (layer, dst) table unless another
// goroutine got there first. The build is guarded by a striped lock so
// concurrent first touches of different destinations do not serialize.
func (e *Engine) firstTouch(layer, dst int, sc *buildScratch) *Table {
	slot := layer*e.nr + dst
	mu := &e.stripes[slot%numStripes]
	if e.m != nil {
		// Contention sampling: TryLock first so a blocked acquisition is
		// observable. Only attempted when telemetry is on — the disabled
		// path is the plain Lock below.
		e.m.StripeAcquisitions.Inc()
		if !mu.TryLock() {
			e.m.StripeContention.Inc()
			mu.Lock()
		}
	} else {
		mu.Lock()
	}
	defer mu.Unlock()
	if t := e.tables[slot].Load(); t != nil {
		return t
	}
	t := buildTable(e.layerRows(layer), e.nr, dst, sc)
	e.tables[slot].Store(t)
	if e.m != nil {
		e.m.TablesBuilt.Inc()
		e.m.CSREntries.Add(int64(len(t.Cand)))
	}
	return t
}

// layerRows returns the layer's adjacency bitset rows, filling the index
// on first use. The fill is a pure function of (graph, mask), so which
// goroutine or which sharing engine performs it is unobservable.
func (e *Engine) layerRows(layer int) []uint64 {
	a := e.adj[layer]
	a.once.Do(func() { a.rows = adjacencyRows(e.g, e.masks[layer]) })
	return a.rows
}

// adjacencyRows builds a layer's bitset index in O(M).
func adjacencyRows(g *graph.Graph, mask []bool) []uint64 {
	words := (g.N() + 63) / 64
	rows := make([]uint64, g.N()*words)
	for id, ed := range g.Edges() {
		if mask != nil && !mask[id] {
			continue
		}
		u, v := int(ed.U), int(ed.V)
		rows[u*words+v>>6] |= 1 << (v & 63)
		rows[v*words+u>>6] |= 1 << (u & 63)
	}
	return rows
}

// buildScratch is buildTable's reusable working set: the BFS level sets,
// `words` words each, back to back. Block 0 is the empty set standing in
// for "the level before the destination's"; block d+1 is level d.
type buildScratch struct {
	levels []uint64
}

// buildTable computes one (layer, destination) table from the layer's
// adjacency rows. Pure function of (rows, dst); sc only lends memory.
//
// The BFS is level-synchronous: the next level is the union of the current
// level's rows minus the current and previous levels (in an undirected
// graph a level's neighbors lie in no earlier one, so no visited set is
// kept). A source at level d has candidate set adj[src] & level[d-1]:
// popcounts during the BFS size the table, trailing-zero extraction fills
// it, which yields each set in ascending neighbor ID.
func buildTable(rows []uint64, nr, dst int, sc *buildScratch) *Table {
	words := (nr + 63) / 64
	levels := append(sc.levels[:0], make([]uint64, 2*words)...)
	levels[words+dst>>6] = 1 << (dst & 63)
	total := 0
	for b := 1; ; b++ { // b is the block of the level being expanded
		levels = append(levels, make([]uint64, words)...)
		prev, cur, next := levels[(b-1)*words:b*words], levels[b*words:(b+1)*words], levels[(b+1)*words:]
		for w, m := range cur {
			for ; m != 0; m &= m - 1 {
				v := w<<6 | bits.TrailingZeros64(m)
				for i, r := range rows[v*words : (v+1)*words] {
					next[i] |= r
					total += bits.OnesCount64(r & prev[i])
				}
			}
		}
		var any uint64
		for i := range next {
			next[i] &^= cur[i] | prev[i]
			any |= next[i]
		}
		if any == 0 {
			levels = levels[:(b+1)*words]
			break
		}
	}
	sc.levels = levels

	slab := make([]int32, 2*nr+1+total)
	dist, off, cand := slab[:nr:nr], slab[nr:2*nr+1:2*nr+1], slab[2*nr+1:]
	for i := range dist {
		dist[i] = -1
	}
	for b := 1; b*words < len(levels); b++ {
		for w, m := range levels[b*words : (b+1)*words] {
			for ; m != 0; m &= m - 1 {
				dist[w<<6|bits.TrailingZeros64(m)] = int32(b - 1)
			}
		}
	}
	n := 0
	for src, d := range dist {
		off[src] = int32(n)
		if d <= 0 {
			continue
		}
		prev := levels[int(d)*words : int(d+1)*words] // block d holds level d-1
		for w, r := range rows[src*words : (src+1)*words] {
			for m := r & prev[w]; m != 0; m &= m - 1 {
				cand[n] = int32(w<<6 | bits.TrailingZeros64(m))
				n++
			}
		}
	}
	off[nr] = int32(n)
	return &Table{Dist: dist, Off: off, Cand: cand}
}

// Candidates returns the ECMP candidate next hops from src toward dst
// within the layer (empty when src == dst or dst is unreachable).
func (e *Engine) Candidates(layer, src, dst int) []int32 {
	return e.Table(layer, dst).Candidates(src)
}

// PathLen returns the hop count of the layer's minimal route from src to
// dst (0 when src == dst), or -1 on a routing hole, which sparse or repaired
// layers can have. Minimal routing makes this the BFS distance, read from
// the table in O(1) instead of walking the forwarding function.
func (e *Engine) PathLen(layer, src, dst int) int {
	return int(e.Table(layer, dst).Dist[src])
}

// Reachable reports whether dst is reachable from src within the layer. A
// router reaches itself without its table being built.
func (e *Engine) Reachable(layer, src, dst int) bool {
	return src == dst || e.PathLen(layer, src, dst) >= 0
}

// Next returns one deterministic next hop from src toward dst within the
// layer, or -1 when unreachable. Ties are broken by folding the engine
// seed with the (layer, src, dst) coordinates — a pure function, so the
// pick never depends on build order or worker count (the dense builder
// it replaces consumed a shared rng sequentially).
func (e *Engine) Next(layer, src, dst int) int32 {
	c := e.Candidates(layer, src, dst)
	switch len(c) {
	case 0:
		return -1
	case 1:
		return c[0]
	}
	key := (uint64(layer)*uint64(e.nr)+uint64(src))*uint64(e.nr) + uint64(dst)
	return c[uint64(exec.FoldSeed(e.seed, key))%uint64(len(c))]
}

// Route follows the representative next hops (Next) from src to dst within
// the layer and returns the router sequence, both ends included. It gives
// up with nil on a routing hole (sparse or repaired layers) or after Nr
// hops.
func (e *Engine) Route(layer, src, dst int) []int32 {
	path := []int32{int32(src)}
	v := src
	for v != dst {
		nxt := e.Next(layer, v, dst)
		if nxt < 0 || len(path) > e.nr {
			return nil
		}
		path = append(path, nxt)
		v = int(nxt)
	}
	return path
}

// LayerPaths returns, for a router pair, the route of every layer that
// connects it, in layer order — the path set a FatPaths sender
// load-balances over.
func (e *Engine) LayerPaths(src, dst int) [][]int32 {
	var out [][]int32
	for l := 0; l < e.NumLayers(); l++ {
		if path := e.Route(l, src, dst); path != nil {
			out = append(out, path)
		}
	}
	return out
}

// BuildAll materializes every (layer, destination) table eagerly on up to
// `workers` goroutines (0 or negative selects all cores). Because each
// table is a pure function of its slot, the resulting engine state is
// identical for every worker count. Each worker claims slots off a shared
// counter and reuses one scratch, so the build allocates only the tables.
func (e *Engine) BuildAll(workers int) {
	n := len(e.tables)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	// fn never fails; the error return exists to satisfy ParallelMap.
	_, _ = exec.ParallelMap(workers, workers, func(int) (struct{}, error) {
		var sc buildScratch
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return struct{}{}, nil
			}
			if e.tables[i].Load() == nil {
				e.firstTouch(i/e.nr, i%e.nr, &sc)
			}
		}
	})
}

// RouteCounts returns, for every source router, the number of distinct
// minimal routes to dst within the layer (0 when unreachable, 1 for the
// destination itself), computed by dynamic programming over the table's
// candidate DAG. Counts saturate at 2^40.
func (e *Engine) RouteCounts(layer, dst int) []int64 {
	t := e.Table(layer, dst)
	counts := make([]int64, e.nr)
	counts[dst] = 1
	maxd := int32(0)
	for _, d := range t.Dist {
		if d > maxd {
			maxd = d
		}
	}
	// Process sources by increasing distance: every candidate of a source
	// at distance d sits at distance d-1 and is already final.
	buckets := make([][]int32, maxd+1)
	for src, d := range t.Dist {
		if d > 0 {
			buckets[d] = append(buckets[d], int32(src))
		}
	}
	for d := int32(1); d <= maxd; d++ {
		for _, src := range buckets[d] {
			var sum int64
			for _, c := range t.Candidates(int(src)) {
				sum += counts[c]
				if sum > routeCountCap {
					sum = routeCountCap
					break
				}
			}
			counts[src] = sum
		}
	}
	return counts
}

// Stats summarizes the engine's materialized state.
type Stats struct {
	// TablesBuilt / TablesTotal count materialized vs possible
	// (layer, destination) tables.
	TablesBuilt, TablesTotal int
	// CandEntries is the total number of CSR candidate entries across
	// built tables — the deployed multi-next-hop state.
	CandEntries int64
}

// Stat reports how much routing state has been materialized so far.
func (e *Engine) Stat() Stats {
	st := Stats{TablesTotal: len(e.tables)}
	for i := range e.tables {
		t := e.tables[i].Load()
		if t == nil {
			continue
		}
		st.TablesBuilt++
		st.CandEntries += int64(len(t.Cand))
	}
	return st
}

// WithoutEdges returns a derived engine with the given base edges removed
// from every layer — the §V-G "major topology update" repair path. Instead
// of rebuilding every table, invalidation is incremental and per
// destination: a built table survives unless one of the removed edges was
// both present in its layer and *tight* toward its destination (i.e. on
// some minimal path, which is exactly when the edge appears in a candidate
// set). Non-tight edges cannot change any distance or candidate set, so
// those tables are shared with the parent engine; affected or unbuilt
// tables rebuild lazily against the repaired masks. Out-of-range IDs are
// ignored and duplicates count once.
func (e *Engine) WithoutEdges(failed []int) *Engine {
	out := &Engine{
		g:      e.g,
		masks:  make([][]bool, len(e.masks)),
		adj:    make([]*layerAdj, len(e.masks)),
		seed:   e.seed,
		nr:     e.nr,
		tables: make([]atomic.Pointer[Table], len(e.tables)),
		m:      e.m,
	}
	m := e.g.M()
	live := func(mask []bool, id int) bool {
		return id >= 0 && id < m && (mask == nil || mask[id])
	}
	for l, old := range e.masks {
		// A layer none of the failed edges is live in shares the parent's
		// mask (immutable by contract) and adjacency index, and — removed
		// staying empty — every built table, at O(|failed|) to decide: the
		// hot shape for a daemon deriving a what-if view per request.
		mask, adj := old, e.adj[l]
		var removed []graph.Edge
		if slices.ContainsFunc(failed, func(id int) bool { return live(old, id) }) {
			mask, adj = make([]bool, m), new(layerAdj)
			if old == nil {
				for id := range mask {
					mask[id] = true
				}
			} else {
				copy(mask, old)
			}
			for _, id := range failed {
				if live(mask, id) { // false for a duplicate: already cleared
					mask[id] = false
					removed = append(removed, e.g.Edge(id))
				}
			}
		}
		out.masks[l], out.adj[l] = mask, adj
		for d := l * e.nr; d < (l+1)*e.nr; d++ {
			t := e.tables[d].Load()
			if t == nil {
				continue
			}
			if tableUsesAny(t, removed) {
				out.invalidated++
				continue
			}
			out.shared++
			out.tables[d].Store(t)
		}
	}
	if e.m != nil {
		e.m.TablesInvalidated.Add(int64(out.invalidated))
		e.m.TablesShared.Add(int64(out.shared))
	}
	return out
}

// Repair reports how WithoutEdges populated this engine from its parent's
// built tables: how many it shares and how many it dropped for lazy
// rebuild. Both are zero for an engine made by NewEngine.
func (e *Engine) Repair() (shared, invalidated int) { return e.shared, e.invalidated }

// tableUsesAny reports whether any of the removed edges is tight in the
// table (a member of a candidate set in either direction).
func tableUsesAny(t *Table, removed []graph.Edge) bool {
	for _, e := range removed {
		if candContains(t.Candidates(int(e.U)), e.V) || candContains(t.Candidates(int(e.V)), e.U) {
			return true
		}
	}
	return false
}

func candContains(cands []int32, v int32) bool {
	for _, c := range cands {
		if c == v {
			return true
		}
	}
	return false
}
