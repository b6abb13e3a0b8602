// Package routing is the single source of path truth for the repository:
// per-(layer, destination) multi-next-hop tables, one distance byte and one
// neighbour-position bitmask per source router, built from the masks of a
// layer set (internal/layers) and read by the
// packet simulator (internal/netsim), the throughput LPs (internal/mcf), the
// daemon (internal/serve) and the analytics/experiments that want path
// statistics. An Engine is the deployed form of the σ_i functions of §V-A
// (Listing 3): where the paper's listing freezes one random tie per (layer,
// src, dst), it keeps the full within-layer ECMP candidate set (§V-C) and
// exposes both a deterministic representative hop (Next) and the whole set
// (Hops, AppendCandidates).
//
// FatPaths routes minimally *within* each layer and load-balances across
// layers (§V of the paper). Minimal routing almost always leaves ties —
// several neighbors one hop closer to the destination — and the paper
// resolves them with ECMP inside the layer (§V-C). Earlier revisions of
// this repository froze one arbitrary tie per (layer, src, dst) in a dense
// n·Nr² array and re-derived the full ECMP sets separately for the
// simulator; this package keeps the whole candidate set once and every
// consumer reads the same tables.
//
// Table format. What a forwarding entry holds is an output port, never a
// router ID, so a table stores, per source router, the hop distance in one
// byte and the candidate set as a bitmask over the source's neighbour list
// in ascending neighbour ID: bit p set ⇔ neighbour number p is one hop
// closer to the destination within the layer. The engine keeps that sorted
// neighbour list once (Neighbors), whatever order edges were inserted in,
// and a position is the contract with readers that own per-port state: the
// simulator indexes its outgoing-link array by it. A mask is ⌈maxdeg/16⌉
// 16-bit units wide, one width per engine and one loop for any degree; a
// table is Nr·(1 + 2·⌈maxdeg/16⌉) bytes. Against the int32 CSR this replaced
// (distance, offset and candidate IDs: 12 bytes per source at one candidate,
// 4 more per extra one) the mask is smaller up to degree 80 even at a single
// candidate per source, and the families the paper targets (radix 16–64,
// 2–6 candidates) come out 3.5–10× smaller. Distances saturate at 254 and
// 0xFF marks an unreachable source; PathLen walks candidate hops down from
// a saturated byte, so longer layers stay exact.
//
// Tables materialize lazily per destination (only destinations actually
// routed to occupy memory — the big win at paper-scale router counts,
// where a workload touches a small slice of the Nr destinations) or
// eagerly in parallel via BuildAll. Construction is a pure function of
// (graph, layer mask, destination) and tie-breaking folds the engine seed
// with the (layer, src, dst) coordinates, so tables and next-hop picks are
// byte-identical for any worker count and any build order. A table is
// published with a compare-and-swap into an empty slot; no lock is taken.
//
// Construction is bit-parallel, with two kernels over the one format; the
// call decides which runs. A first touch wants one destination: buildTable
// runs one BFS over the layer's adjacency bitset index (one Nr-bit row per
// router, built once from (graph, mask) on the layer's first lazy table)
// and reads each candidate set off as adj[src] & level[dist(src)-1], ranking
// every member among src's neighbours to get its position — about
// 3·Nr·⌈Nr/64⌉ word operations. BuildAll wants every destination:
// buildBlock runs 64 BFSes at once, one bit per destination in each
// router's word, so a pass over the layer's 2M edge ends advances all 64 by
// one level and the positions come from the neighbour lists — about
// ⌈Nr/64⌉·levels·2M word operations per layer against buildTable's
// Nr²·⌈Nr/64⌉, and no index is built. A block costs about twenty single
// tables at the daemon's sizes, so a first touch stays per destination.
//
// Repair. WithoutEdges derives a view from a complete root: it runs the
// root's single-flight BuildAll first, so every table a view reads off or
// repairs exists. Its census sets one stale bit per (layer, destination)
// table a failure set invalidates, off a parity index (parityCol) of which
// routers sit at an odd BFS level from each destination, filled one
// 64-destination block at a time by the first census that needs it; a view
// copies none of its root's masks, slots or adjacency rows. A view's lookup
// of a stale table repairs a copy of the root's (repair, a decremental BFS):
// deleting edges only lengthens distances, so only the routers whose every
// candidate hop was cut or grew farther get new distances and masks, and
// the rest keep theirs minus the lost bits — on the daemon's two fabric
// shapes, 0 routers at the median repair, 1 at p90 and 32 at most. A view
// publishes what it repairs into slots allocated per (layer, 64-destination
// block), on the block's first publication, indexed like its stale bits.
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

// table is the multi-next-hop table of one (layer, destination) pair, in its
// engine's (nr, units) geometry: slab[src*units:(src+1)*units] is src's
// candidate mask (bit p ⇔ src's p-th neighbour, ascending, is one hop closer;
// empty for the destination and for unreachable sources), and after the nr
// masks come the distance bytes, two per unit, low byte first. One
// allocation. Tables are immutable once published and safe to share.
type table struct {
	slab  []uint16
	cands int32 // set mask bits: the table's candidate entries
}

const (
	// unreachable is the distance byte of a source the layer cannot route
	// from (possible in sparse layers).
	unreachable = 0xFF
	// distCap is where distance bytes saturate: a source that far or farther
	// stores distCap, and pathLen walks candidate hops down to an exact byte.
	distCap = 0xFE
)

// Hops is the ECMP candidate set of one (layer, src, dst), in ascending
// neighbour ID, as positions in src's neighbour list (Engine.Neighbors): what
// a reader holding per-port state indexes by. It aliases the table.
type Hops struct{ mask []uint16 }

// Len returns the number of candidates (0 when src == dst or dst is
// unreachable within the layer).
func (h Hops) Len() int {
	n := 0
	for _, u := range h.mask {
		n += bits.OnesCount16(u)
	}
	return n
}

// Pos returns the neighbour position of candidate k, 0 <= k < Len().
func (h Hops) Pos(k int) int {
	for i, u := range h.mask {
		if c := bits.OnesCount16(u); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			u &= u - 1
		}
		return i<<4 | bits.TrailingZeros16(u)
	}
	panic("routing: candidate index out of range")
}

// routeCountCap saturates minimal-route counts (RouteCounts) so dense
// graphs cannot overflow int64.
const routeCountCap = int64(1) << 40

// layerAdj is one layer's adjacency bitset index: bit h of row v is set iff
// the edge (v,h) is enabled in the layer. Row v occupies
// rows[v*words:(v+1)*words] with words = ⌈Nr/64⌉, so a materialized layer
// costs Nr·⌈Nr/64⌉·8 bytes. It is filled on the layer's first lazily built
// table; BuildAll and WithoutEdges views do not read it.
type layerAdj struct {
	once sync.Once
	rows []uint64

	// What the fill scans, in O(M).
	g    *graph.Graph
	mask []bool
}

// get returns the rows, filling the index on first use. The fill is a pure
// function of (graph, mask), so which goroutine performs it is
// unobservable.
func (a *layerAdj) get() []uint64 {
	a.once.Do(func() {
		words := (a.g.N() + 63) / 64
		a.rows = make([]uint64, a.g.N()*words)
		for id, ed := range a.g.Edges() {
			if a.mask == nil || a.mask[id] {
				u, v := int(ed.U), int(ed.V)
				a.rows[u*words+v>>6] |= 1 << (v & 63)
				a.rows[v*words+u>>6] |= 1 << (u & 63)
			}
		}
	})
	return a.rows
}

// parityCol is one 64-destination block of one layer's repair index on an
// engine from NewEngine: bit j of rows[u] is set iff router u lies at an
// odd BFS level from destination b0+j. A live layer edge joins levels at
// most one apart, and both of its ends are reachable or neither, so it is
// tight toward a destination — on a minimal path, in a candidate set — iff
// its two ends' rows differ at the destination's bit: a WithoutEdges census
// reads that off in one word per removed edge instead of reading the
// block's tables. The kernels do not write the index; the first census that
// needs the block reads its 64 tables' distance bytes once (index), so
// engines nobody derives from pay nothing.
type parityCol struct {
	once sync.Once
	rows []uint64 // Nr words
}

// Engine computes and caches the tables of one layered routing
// configuration. It is safe for concurrent use and takes no lock: a table is
// built by whoever first asks for it and published with a compare-and-swap,
// so concurrent builders of one slot agree on the table that stays.
type Engine struct {
	g     *graph.Graph
	masks [][]bool    // masks[layer]; nil means the full edge set
	adj   []*layerAdj // adj[layer], lazily filled; nil on a view
	base  *layerAdj   // the full graph's index: a member's rank in its row is its position; nil on a view
	seed  int64
	nr    int

	// Router r's neighbours in the full graph, ascending, are
	// nbr[nbrOff[r]:nbrOff[r+1]]: the list table masks are positions in.
	// Built once by NewEngine and shared with every WithoutEdges view.
	nbrOff, nbr []int32
	units       int // mask width in uint16 units, ⌈maxdeg/16⌉

	tables []atomic.Pointer[table] // slot = layer*nr + dst; nil on a view
	// buildAll runs the engine's one eager build; BuildAll waits on it.
	buildAll sync.Once

	// The repair index of an engine from NewEngine (nil on a view), indexed
	// by layer*words + dst>>6.
	parity []parityCol

	// A WithoutEdges view's derivation: root is the engine from NewEngine it
	// derives from (nil on that engine), failed the valid failed IDs,
	// ascending and distinct. Layer l is masks[l] (the root's) without
	// failed. cut holds the two mask bits of each failed edge, which repair
	// clears; a layer without the edge never sets them. Bit dst&63 of
	// stale[l*⌈Nr/64⌉+dst>>6] is set iff a failed edge live in layer l is
	// tight in the root's (l, dst) table (census). own is indexed like
	// stale: own[l*⌈Nr/64⌉+dst>>6] holds the 64 slots of the block's tables
	// the view built, allocated on the block's first publication, so a
	// request that repairs four tables pays for four blocks, not four
	// Nr-wide layers. A lookup takes the view's own table, else the root's
	// when its stale bit is clear, else repairs the root's.
	root   *Engine
	failed []int
	cut    []maskBit
	stale  []uint64
	own    []atomic.Pointer[[64]atomic.Pointer[table]]

	// shared/invalidated count the root's tables a WithoutEdges derivation
	// kept and dropped; zero for an engine from NewEngine.
	shared, invalidated int

	// m, when non-nil, receives routing-core telemetry (tables built,
	// candidate entries deployed, repairs). All counters fire off the read
	// fast path — only publications and WithoutEdges repairs touch them —
	// so a nil m costs nothing per lookup.
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
	nr := g.N()
	e := &Engine{
		g:      g,
		masks:  masks,
		adj:    make([]*layerAdj, len(masks)),
		base:   &layerAdj{g: g},
		seed:   seed,
		nr:     nr,
		nbrOff: make([]int32, nr+1),
		nbr:    make([]int32, 0, 2*g.M()),
		tables: make([]atomic.Pointer[table], len(masks)*nr),
		parity: make([]parityCol, len(masks)*((nr+63)/64)),
	}
	for l, mask := range masks {
		e.adj[l] = e.base // a full layer's index is the full graph's
		if mask != nil {
			e.adj[l] = &layerAdj{g: g, mask: mask}
		}
	}
	maxdeg := 0
	for r := 0; r < nr; r++ {
		for _, h := range g.Neighbors(r) {
			e.nbr = append(e.nbr, h.To)
		}
		slices.Sort(e.nbr[e.nbrOff[r]:])
		e.nbrOff[r+1] = int32(len(e.nbr))
		maxdeg = max(maxdeg, g.Degree(r))
	}
	e.units = (maxdeg + 15) / 16
	return e
}

// NumLayers returns the number of routing layers.
func (e *Engine) NumLayers() int { return len(e.masks) }

// Engine is the identity: nothing in this module calls it. It is still
// declared only because the frozen bench/layers.go spells the engine
// `Fwd.Engine().Stat()`; the [benchmark] PR of ROADMAP item 1(b) deletes it.
func (e *Engine) Engine() *Engine { return e }

// Neighbors returns router r's neighbours in the full graph in ascending
// ID — the list a Hops position indexes. The slice aliases the engine;
// callers must not modify it.
func (e *Engine) Neighbors(r int) []int32 { return e.nbr[e.nbrOff[r]:e.nbrOff[r+1]] }

// table returns the (layer, dst) table, building it on first use. A view
// repairs a copy of its root's table; a view never adds to its root.
func (e *Engine) table(layer, dst int) *table {
	// A view has no flat slots, so the test that bounds the index also
	// sends it down the slow path.
	if slot := layer*e.nr + dst; uint(slot) < uint(len(e.tables)) {
		if t := e.tables[slot].Load(); t != nil {
			return t
		}
	}
	if t := e.lookup(layer, dst); t != nil {
		return t
	}
	if e.root == nil {
		return e.publish(layer, dst, buildTable(e.adj[layer].get(), e.base.get(), e.nr, e.units, dst))
	}
	rt := e.root.tables[layer*e.nr+dst].Load()
	return e.publish(layer, dst, e.repair(layer, &table{slices.Clone(rt.slab), rt.cands}))
}

// lookup returns the (layer, dst) table without building it, nil when the
// engine has none yet. A view has the table it built, else the root's when
// the census left its stale bit clear: removing edges on no minimal path
// moves no distance and no candidate set, so that table is the view's bit
// for bit.
func (e *Engine) lookup(layer, dst int) *table {
	if e.root == nil {
		return e.tables[layer*e.nr+dst].Load()
	}
	b := layer*((e.nr+63)/64) + dst>>6
	if own := e.own[b].Load(); own != nil {
		if t := own[dst&63].Load(); t != nil {
			return t
		}
	}
	if e.stale[b]&(1<<(dst&63)) != 0 {
		return nil
	}
	return e.root.tables[layer*e.nr+dst].Load()
}

// slot returns the engine's own slot for (layer, dst), allocating a view's
// slots for the destination's 64-destination block on first use.
func (e *Engine) slot(layer, dst int) *atomic.Pointer[table] {
	if e.root == nil {
		return &e.tables[layer*e.nr+dst]
	}
	b := layer*((e.nr+63)/64) + dst>>6
	own := e.own[b].Load()
	if own == nil {
		if own = new([64]atomic.Pointer[table]); !e.own[b].CompareAndSwap(nil, own) {
			own = e.own[b].Load()
		}
	}
	return &own[dst&63]
}

// publish stores t in its empty slot and returns it, or, when another
// builder published first, drops t and returns the table already there.
// Tables are pure functions of their slot, so the two are identical; only
// the winner is counted, which keeps the counters independent of timing.
func (e *Engine) publish(layer, dst int, t *table) *table {
	slot := e.slot(layer, dst)
	if !slot.CompareAndSwap(nil, t) {
		return slot.Load()
	}
	if e.m != nil {
		e.m.TablesBuilt.Inc()
		e.m.CSREntries.Add(int64(t.cands))
	}
	return t
}

// newTable allocates a table in the (nr, units) geometry with empty masks
// and every source unreachable.
func newTable(nr, units int) *table {
	dists := nr * units // the distance bytes start where the masks end
	slab := make([]uint16, dists+(nr+1)/2)
	for i := dists; i < len(slab); i++ {
		slab[i] = unreachable<<8 | unreachable
	}
	return &table{slab: slab}
}

// setDist writes src's distance byte, saturating at distCap.
func (t *table) setDist(nr, units, src, d int) { t.setByte(nr, units, src, uint8(min(d, distCap))) }

// setByte writes src's distance byte as given.
func (t *table) setByte(nr, units, src int, b uint8) {
	i, shift := nr*units+src>>1, uint(src&1)<<3
	t.slab[i] = t.slab[i]&^(0xFF<<shift) | uint16(b)<<shift
}

// buildTable computes one (layer, destination) table from the layer's
// adjacency rows and the full graph's: the lazy kernel, for a caller that
// wants one destination. Pure function of (rows, base, dst).
//
// The BFS is level-synchronous: the next level is the union of the current
// level's rows minus the current and previous levels (in an undirected
// graph a level's neighbors lie in no earlier one, so no visited set is
// kept). A source at level d has candidate set adj[src] & level[d-1], read
// off while its row is being unioned into the next level; each member h
// becomes the position popcount(base[src] below h), its rank among src's
// neighbours in ascending ID. The level before the destination's is empty,
// so the destination gets no candidates.
func buildTable(rows, base []uint64, nr, units, dst int) *table {
	words := (nr + 63) / 64
	t := newTable(nr, units)
	levels := make([]uint64, 3*words)
	prev, cur, next := levels[:words], levels[words:2*words], levels[2*words:]
	cur[dst>>6] = 1 << (dst & 63)
	for d := 0; ; d++ {
		for w, m := range cur {
			for ; m != 0; m &= m - 1 {
				src := w<<6 | bits.TrailingZeros64(m)
				t.setDist(nr, units, src, d)
				mask := t.slab[src*units : (src+1)*units]
				rank := 0
				for i, r := range rows[src*words : (src+1)*words] {
					next[i] |= r
					b := base[src*words+i]
					for c := r & prev[i]; c != 0; c &= c - 1 {
						pos := rank + bits.OnesCount64(b&((c&-c)-1))
						mask[pos>>4] |= 1 << (pos & 15)
						t.cands++
					}
					rank += bits.OnesCount64(b)
				}
			}
		}
		var any uint64
		for i := range next {
			next[i] &^= cur[i] | prev[i]
			any |= next[i]
		}
		if any == 0 {
			return t
		}
		prev, cur, next = cur, next, prev
		clear(next)
	}
}

// repair turns t, a (layer, dst) table of the view's root, into the view's
// in place: the table buildTable gives on the layer without the view's
// failed edges, bit for bit. Deleting edges only lengthens distances, so it
// patches the routers whose distance grows (decremental BFS: Even and
// Shiloach, JACM 28(1), 1981; Ramalingam and Reps, J. Algorithms 21(2),
// 1996):
//   - Each cut edge loses its bit at its upper end. A router whose mask
//     empties is affected: no live neighbour is one hop closer any more, so
//     its distance grows, its bit leaves the mask of each neighbour one
//     level up, and those masks may empty in turn. Affected routers read as
//     unreachable meanwhile. Every other router keeps its distance and the
//     bits it has left: no neighbour can have come closer.
//   - Affected routers then settle in increasing distance, a bucketed BFS
//     seeded at their unaffected live neighbours, each taking a fresh mask
//     as it settles. One that never settles stays unreachable.
//
// Distances are read through pathLen, so saturated bytes come out exact.
func (e *Engine) repair(layer int, t *table) *table {
	sc := repairPool.Get().(*repairScratch)
	defer repairPool.Put(sc)
	hit := sc.hit[:0] // the affected routers, in the order their masks emptied
	drop := func(b maskBit) {
		if t.slab[b.unit]&b.bit == 0 {
			return
		}
		t.slab[b.unit] &^= b.bit
		t.cands--
		src := int(b.unit) / e.units
		for _, u := range e.mask(t, src) {
			if u != 0 {
				return
			}
		}
		t.setByte(e.nr, e.units, src, unreachable)
		hit = append(hit, int32(src))
	}
	for _, b := range e.cut {
		drop(b)
	}
	for i := 0; i < len(hit); i++ {
		for _, y := range e.Neighbors(int(hit[i])) {
			drop(e.bitFor(y, hit[i]))
		}
	}
	sc.hit = hit
	if len(hit) == 0 {
		return t
	}

	mask := e.masks[layer]
	live := func(id int32) bool {
		if mask != nil && !mask[id] {
			return false
		}
		_, gone := slices.BinarySearch(e.failed, int(id))
		return !gone
	}
	seeds := sc.seeds[:0]
	for _, x := range hit {
		best := -1
		for _, h := range e.g.Neighbors(int(x)) {
			if d := e.pathLen(t, int(h.To)); d >= 0 && (best < 0 || d < best) && live(h.Edge) {
				best = d
			}
		}
		if best >= 0 {
			seeds = append(seeds, repairHop{int32(best) + 1, x})
		}
	}
	slices.SortFunc(seeds, func(a, b repairHop) int { return int(a.d - b.d) })
	fifo := sc.fifo[:0] // settled routers' affected neighbours, distances ascending
	for si, fi := 0, 0; si < len(seeds) || fi < len(fifo); {
		var h repairHop
		if fi == len(fifo) || si < len(seeds) && seeds[si].d <= fifo[fi].d {
			h, si = seeds[si], si+1
		} else {
			h, fi = fifo[fi], fi+1
		}
		v := int(h.v)
		if e.dist(t, v) != unreachable {
			continue // settled already, no farther
		}
		t.setDist(e.nr, e.units, v, int(h.d))
		m, nbrs := e.mask(t, v), e.Neighbors(v)
		for _, nb := range e.g.Neighbors(v) {
			if !live(nb.Edge) {
				continue
			}
			switch d := e.pathLen(t, int(nb.To)); d {
			case -1: // affected, not settled yet
				fifo = append(fifo, repairHop{h.d + 1, nb.To})
			case int(h.d) - 1:
				p, _ := slices.BinarySearch(nbrs, nb.To)
				m[p>>4] |= 1 << (p & 15)
				t.cands++
			}
		}
	}
	sc.seeds, sc.fifo = seeds, fifo
	return t
}

// repairScratch holds repair's three working lists between repairs, so
// that a view repairing many tables — a /whatif's queries, a Repair sweep
// — grows them once rather than once per table. Concurrent repairs take
// separate scratch from the pool.
type repairScratch struct {
	hit         []int32
	seeds, fifo []repairHop
}

// repairHop is an affected router v and the distance it would settle at.
type repairHop struct{ d, v int32 }

var repairPool = sync.Pool{New: func() any { return new(repairScratch) }}

// layerEdge is one edge of a layer seen from router v: the neighbour u and
// its position p in v's full neighbour list (Neighbors).
type layerEdge struct{ u, p int32 }

// blockScratch is one BuildAll worker's reusable working set, sized once:
// the edge lists of the layer it last built a block of, and three words per
// router for the multi-source BFS.
type blockScratch struct {
	layer int // the layer whose edges are loaded; -1 before the first block
	// Router v's layer edges are edges[off[v]:off[v+1]].
	off   []int32
	edges []layerEdge
	// Bit j of a router's word stands for destination b0+j: prev and cur
	// are the last two BFS levels, seen every level so far.
	prev, cur, seen []uint64
}

// newBlockScratch sizes a worker's scratch for the engine's routers and
// edges; no block grows it.
func (e *Engine) newBlockScratch() blockScratch {
	words := make([]uint64, 3*e.nr)
	return blockScratch{
		layer: -1,
		off:   make([]int32, e.nr+1),
		edges: make([]layerEdge, 0, 2*e.g.M()), // any layer's edge ends fit
		prev:  words[:e.nr],
		cur:   words[e.nr : 2*e.nr],
		seen:  words[2*e.nr:],
	}
}

// useLayer points sc at the layer's edge lists, rebuilding them only when
// the layer changes. A position is found in the full neighbour list, so
// the graph's own adjacency order does not matter.
func (e *Engine) useLayer(layer int, sc *blockScratch) {
	if sc.layer == layer {
		return
	}
	sc.layer = layer
	mask := e.masks[layer]
	sc.edges = sc.edges[:0]
	for v := 0; v < e.nr; v++ {
		nbrs := e.Neighbors(v)
		for _, h := range e.g.Neighbors(v) {
			if mask != nil && !mask[h.Edge] {
				continue
			}
			if _, gone := slices.BinarySearch(e.failed, int(h.Edge)); !gone {
				p, _ := slices.BinarySearch(nbrs, h.To)
				sc.edges = append(sc.edges, layerEdge{h.To, int32(p)})
			}
		}
		sc.off[v+1] = int32(len(sc.edges))
	}
}

// buildBlock builds and publishes the still-unbuilt tables of destinations
// b0..b0+63 in the layer: the eager kernel, a bit-parallel multi-source BFS
// (MS-BFS, Then et al., VLDB 2015). Bit j of a router's word stands for
// destination b0+j, so one pass over the layer's edges advances up to 64
// BFSes by one level:
//
//	cur[v] = (⋁_{u∈N_l(v)} prev[u]) &^ seen[v]
//
// Set bits of cur[v] give v's distance byte in their tables, and for each
// layer edge (v, u at position p), cur[v] & prev[u] are the destinations for
// which u is one hop closer: bit p of v's mask in each of those tables. The
// tables equal buildTable's bit for bit.
func (e *Engine) buildBlock(layer, b0 int, sc *blockScratch) {
	k := min(64, e.nr-b0)
	var want uint64 // the destinations the engine has no table for yet
	for j := 0; j < k; j++ {
		if e.lookup(layer, b0+j) == nil {
			want |= 1 << j
		}
	}
	if want == 0 {
		return
	}
	e.useLayer(layer, sc)
	prev, cur, seen := sc.prev, sc.cur, sc.seen
	clear(prev)
	clear(seen)
	var tabs [64]*table
	for m := want; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		tabs[j] = newTable(e.nr, e.units)
		tabs[j].setDist(e.nr, e.units, b0+j, 0)
		prev[b0+j], seen[b0+j] = 1<<j, 1<<j
	}
	for d := 1; ; d++ {
		var any uint64
		for v := 0; v < e.nr; v++ {
			cur[v] = 0
			if seen[v] == want {
				continue
			}
			edges := sc.edges[sc.off[v]:sc.off[v+1]]
			var acc uint64
			for _, ed := range edges {
				acc |= prev[ed.u]
			}
			c := acc &^ seen[v]
			if c == 0 {
				continue
			}
			cur[v] = c
			seen[v] |= c
			any |= c
			for m := c; m != 0; m &= m - 1 {
				tabs[bits.TrailingZeros64(m)].setDist(e.nr, e.units, v, d)
			}
			base := v * e.units
			for _, ed := range edges {
				unit, bit := base+int(ed.p>>4), uint16(1)<<(ed.p&15)
				for m := c & prev[ed.u]; m != 0; m &= m - 1 {
					t := tabs[bits.TrailingZeros64(m)]
					t.slab[unit] |= bit
					t.cands++
				}
			}
		}
		if any == 0 {
			break
		}
		prev, cur = cur, prev
	}
	for m := want; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		e.publish(layer, b0+j, tabs[j])
	}
}

// dist returns src's distance byte in t.
func (e *Engine) dist(t *table, src int) uint8 {
	return uint8(t.slab[e.nr*e.units+src>>1] >> (uint(src&1) << 3))
}

// mask returns src's candidate mask in t. (Sliced in two steps, one
// multiplication: that keeps Hops within the inliner's budget, so a reader
// pays one call — table's — per lookup.)
func (e *Engine) mask(t *table, src int) []uint16 {
	return t.slab[src*e.units:][:e.units]
}

// Hops returns the ECMP candidate set from src toward dst within the layer.
func (e *Engine) Hops(layer, src, dst int) Hops {
	return Hops{e.mask(e.table(layer, dst), src)}
}

// AppendCandidates appends the router IDs of the ECMP candidate next hops
// from src toward dst within the layer, ascending, to buf and returns it
// (nothing appended when src == dst or dst is unreachable).
func (e *Engine) AppendCandidates(buf []int32, layer, src, dst int) []int32 {
	nbrs := e.Neighbors(src)
	for i, u := range e.mask(e.table(layer, dst), src) {
		for ; u != 0; u &= u - 1 {
			buf = append(buf, nbrs[i<<4|bits.TrailingZeros16(u)])
		}
	}
	return buf
}

// Candidates is AppendCandidates into a fresh slice. No command calls it —
// readers take Hops or bring a buffer — and it is still declared because
// the frozen bench/ (e2e.go, layers.go) copies `Fwd.Candidates(...)`; the
// [benchmark] PR of ROADMAP item 1(b) moves those to AppendCandidates and
// deletes it.
func (e *Engine) Candidates(layer, src, dst int) []int32 {
	return e.AppendCandidates(nil, layer, src, dst)
}

// PathLen returns the hop count of the layer's minimal route from src to
// dst (0 when src == dst), or -1 on a routing hole, which sparse or repaired
// layers can have. Minimal routing makes this the BFS distance, read from
// the table in O(1) instead of walking the forwarding function (but for the
// hops a saturated distance byte leaves to walk).
func (e *Engine) PathLen(layer, src, dst int) int {
	return e.pathLen(e.table(layer, dst), src)
}

func (e *Engine) pathLen(t *table, src int) int {
	for walked := 0; ; walked++ {
		switch d := e.dist(t, src); {
		case d == unreachable:
			return -1
		case d < distCap:
			return walked + int(d)
		}
		src = int(e.Neighbors(src)[Hops{e.mask(t, src)}.Pos(0)])
	}
}

// Reachable reports whether dst is reachable from src within the layer. A
// router reaches itself without its table being built.
func (e *Engine) Reachable(layer, src, dst int) bool {
	return src == dst || e.dist(e.table(layer, dst), src) != unreachable
}

// next picks one deterministic next hop from src toward dst within the
// layer and returns its position in src's neighbour list and its router ID,
// or -1, -1 when unreachable. Ties are broken by folding the engine seed
// with the (layer, src, dst) coordinates — a pure function, so the pick
// never depends on build order or worker count (the dense builder it
// replaces consumed a shared rng sequentially).
func (e *Engine) next(layer, src, dst int) (pos int, to int32) {
	h := Hops{e.mask(e.table(layer, dst), src)}
	switch n := h.Len(); n {
	case 0:
		return -1, -1
	case 1:
		pos = h.Pos(0)
	default:
		key := (uint64(layer)*uint64(e.nr)+uint64(src))*uint64(e.nr) + uint64(dst)
		pos = h.Pos(int(uint64(exec.FoldSeed(e.seed, key)) % uint64(n)))
	}
	return pos, e.nbr[int(e.nbrOff[src])+pos]
}

// Next returns one deterministic next hop from src toward dst within the
// layer, or -1 when unreachable.
func (e *Engine) Next(layer, src, dst int) int32 {
	_, to := e.next(layer, src, dst)
	return to
}

// NextPos returns the position of Next in src's neighbour list, or -1.
func (e *Engine) NextPos(layer, src, dst int) int {
	pos, _ := e.next(layer, src, dst)
	return pos
}

// Route follows the representative next hops (Next) from src to dst within
// the layer and returns the router sequence, both ends included. It gives
// up with nil on a routing hole (sparse or repaired layers) or after Nr
// hops.
func (e *Engine) Route(layer, src, dst int) []int32 {
	d := e.PathLen(layer, src, dst)
	if d < 0 {
		return nil
	}
	path := append(make([]int32, 0, d+1), int32(src))
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

// DistinctRoutes returns the number of distinct (first hop, length) routes
// from src to dst across all layers: every layer's ECMP candidates, each
// taken at that layer's path length. It is the cross-layer path diversity
// the flowlet balancer chooses over.
func (e *Engine) DistinctRoutes(src, dst int) int {
	// union[i*units:][:units] is the candidate mask at length lens[i]; at
	// most one length per layer, so neither grows past its first size.
	lens := make([]int, 0, len(e.masks))
	union := make([]uint16, 0, len(e.masks)*e.units)
	for l := range e.masks {
		t := e.table(l, dst)
		d := e.pathLen(t, src)
		if d < 0 {
			continue
		}
		i := slices.Index(lens, d)
		if i < 0 {
			i = len(lens)
			lens = append(lens, d)
			union = union[:len(union)+e.units]
		}
		for k, u := range e.mask(t, src) {
			union[i*e.units+k] |= u
		}
	}
	n := 0
	for _, u := range union {
		n += bits.OnesCount16(u)
	}
	return n
}

// BuildAll materializes every (layer, destination) table eagerly on up to
// `workers` goroutines (0 or negative selects all cores). Workers claim
// (layer, 64-destination block) units layer-major off a shared counter and
// run buildBlock on each, reusing one scratch, so the build allocates only
// the tables. Tables the engine already has — first touches, or the root's
// tables a WithoutEdges view can use — are left as they are. Each table is
// a pure function of its slot, so the engine state is identical for every
// worker count and whichever kernel built a table. BuildAll is single-flight:
// the first call builds, concurrent calls wait for it, and later calls
// return at once.
func (e *Engine) BuildAll(workers int) {
	e.buildAll.Do(func() {
		blocks := (e.nr + 63) / 64
		n := len(e.masks) * blocks
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, n)
		var next atomic.Int64
		// fn never fails; the error return exists to satisfy ParallelMap.
		_, _ = exec.ParallelMap(workers, workers, func(int) (struct{}, error) {
			sc := e.newBlockScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return struct{}{}, nil
				}
				e.buildBlock(i/blocks, i%blocks*64, &sc)
			}
		})
	})
}

// RouteCounts returns, for every source router, the number of distinct
// minimal routes to dst within the layer (0 when unreachable, 1 for the
// destination itself), computed by dynamic programming over the table's
// candidate DAG. Counts saturate at 2^40.
func (e *Engine) RouteCounts(layer, dst int) []int64 {
	t := e.table(layer, dst)
	counts := make([]int64, e.nr)
	counts[dst] = 1
	// Process sources by increasing distance: every candidate of a source
	// at distance d sits at distance d-1 and is already final.
	var buckets [][]int32
	for src := range counts {
		d := e.pathLen(t, src)
		if d <= 0 {
			continue
		}
		for len(buckets) <= d {
			buckets = append(buckets, nil)
		}
		buckets[d] = append(buckets[d], int32(src))
	}
	var cands []int32
	for _, bucket := range buckets {
		for _, src := range bucket {
			cands = e.AppendCandidates(cands[:0], layer, int(src), dst)
			var sum int64
			for _, c := range cands {
				sum = min(sum+counts[c], routeCountCap)
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
	// CandEntries is the total number of candidate entries (set mask bits)
	// across built tables — the deployed multi-next-hop state.
	CandEntries int64
	// Bytes is what the built tables occupy: masks and distance bytes. The
	// indices every table of an engine shares (neighbour lists, adjacency
	// rows) are not counted.
	Bytes int64
}

// Stat reports how much routing state has been materialized so far. A
// view counts its own tables and the root's tables it can use.
func (e *Engine) Stat() Stats {
	st := Stats{TablesTotal: len(e.masks) * e.nr}
	for i := range st.TablesTotal {
		t := e.lookup(i/e.nr, i%e.nr)
		if t == nil {
			continue
		}
		st.TablesBuilt++
		st.CandEntries += int64(t.cands)
		st.Bytes += 2 * int64(len(t.slab))
	}
	return st
}

// maskBit addresses one bit of a table: slab[unit] & bit.
type maskBit struct {
	unit int32
	bit  uint16
}

// bitFor returns the mask bit that stands for neighbour to in src's
// candidate sets; the two must be adjacent.
func (e *Engine) bitFor(src, to int32) maskBit {
	pos, _ := slices.BinarySearch(e.Neighbors(int(src)), to)
	return maskBit{int32(int(src)*e.units + pos>>4), 1 << (pos & 15)}
}

// WithoutEdges returns a derived engine with the given base edges removed
// from every layer — the §V-G "major topology update" path, where routes are
// recomputed incrementally, per destination. A table survives unless one of
// the removed edges was both present in its layer and *tight* toward its
// destination (on some minimal path, which is exactly when the edge appears
// in a candidate set): a non-tight edge changes no distance and no
// candidate set, so the view reads that table from the root engine. A table
// a removed edge is tight in is repaired from the root's on the view's first
// lookup (repair): only the routers whose distance grows are recomputed,
// and the result is the table a fresh build on the repaired layer gives,
// bit for bit. A view of a view derives from the root with both failure
// sets. Out-of-range IDs are ignored and duplicates count once.
//
// A view derives only from a complete root: WithoutEdges first runs the
// root's BuildAll(0). On a root whose BuildAll has returned that is free;
// on a lazily built one it is one eager build, tens of milliseconds at
// Nr ≈ 10⁴, paid by the first derivation only. The census then marks the
// view's stale tables off the root's parity index in O(L·|F|·⌈Nr/64⌉) word
// operations, reading a block's tables only the first time a census needs
// its bits. A view copies no mask, no slot and no adjacency row: it keeps
// its root, the failed edges, their mask bits, one stale bit per table and,
// per 64-destination block it repairs or builds a table of, that block's
// slots.
func (e *Engine) WithoutEdges(failed []int) *Engine {
	r := e
	if e.root != nil {
		r, failed = e.root, slices.Concat(e.failed, failed)
	}
	r.BuildAll(0)
	m := r.g.M()
	gone := make([]int, 0, len(failed))
	for _, id := range failed {
		if id >= 0 && id < m {
			gone = append(gone, id)
		}
	}
	slices.Sort(gone)
	gone = slices.Compact(gone)
	nl, words := len(r.masks), (r.nr+63)/64
	out := &Engine{
		g:      r.g,
		masks:  r.masks,
		seed:   r.seed,
		nr:     r.nr,
		nbrOff: r.nbrOff,
		nbr:    r.nbr,
		units:  r.units,
		root:   r,
		failed: gone,
		cut:    make([]maskBit, 0, 2*len(gone)),
		stale:  make([]uint64, nl*words),
		own:    make([]atomic.Pointer[[64]atomic.Pointer[table]], nl*words),
		m:      r.m,
	}
	for _, id := range gone {
		ed := r.g.Edge(id)
		out.cut = append(out.cut, r.bitFor(ed.U, ed.V), r.bitFor(ed.V, ed.U))
	}
	for l := range nl {
		out.invalidated += r.census(l, gone, out.stale[l*words:(l+1)*words])
	}
	out.shared = nl*r.nr - out.invalidated
	if r.m != nil {
		r.m.TablesInvalidated.Add(int64(out.invalidated))
		r.m.TablesShared.Add(int64(out.shared))
	}
	return out
}

// census sets in stale, one word per 64-destination block, the bits of the
// layer's destinations in whose tables a failed edge live in the layer is
// tight — ⋁ rows[u] ⊕ rows[v] over the layer's parity columns on a complete
// engine from NewEngine — and returns their count. A layer holding none of
// the failed edges reads no column.
func (e *Engine) census(layer int, failed []int, stale []uint64) (invalidated int) {
	mask := e.masks[layer]
	for w := range stale {
		for _, id := range failed {
			if mask == nil || mask[id] {
				ed, rows := e.g.Edge(id), e.index(layer, w).rows
				stale[w] |= rows[ed.U] ^ rows[ed.V]
			}
		}
		invalidated += bits.OnesCount64(stale[w])
	}
	return invalidated
}

// index returns the parity column of destinations w·64.. in the layer,
// filling it on first use from the block's tables' distance bytes: bit j of
// router u's word is set iff u lies at an odd distance from w·64+j.
func (e *Engine) index(layer, w int) *parityCol {
	col := &e.parity[layer*((e.nr+63)/64)+w]
	col.once.Do(func() {
		col.rows = make([]uint64, e.nr)
		for j := 0; j < min(64, e.nr-w<<6); j++ {
			t := e.tables[layer*e.nr+(w<<6|j)].Load()
			for u := range col.rows {
				odd := false
				switch d := e.dist(t, u); d {
				case unreachable:
				case distCap: // saturated: walk down to the exact distance
					odd = e.pathLen(t, u)&1 == 1
				default:
					odd = d&1 == 1
				}
				if odd {
					col.rows[u] |= 1 << j
				}
			}
		}
	})
	return col
}

// Repair reports how WithoutEdges found the root's tables when it derived
// this view: how many the view can use and how many it dropped for lazy
// repair. The two add up to L·Nr on a view and are zero for an engine made
// by NewEngine.
func (e *Engine) Repair() (shared, invalidated int) { return e.shared, e.invalidated }
