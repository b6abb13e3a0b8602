package netsim

import "math/bits"

// Event storage. The queue is the simulator's hottest data structure, so
// its layout is built around three decisions:
//
//   - Near and far events queue apart. A packet event (evTxDone, evDeliver,
//     evInject) is scheduled at most one MTU serialization plus one link
//     delay ahead; a timer about an RTO, a thousand times further. The near
//     future lives in a calendar queue (wheel): a fixed ring of buckets,
//     one per tick, where push is a list prepend and pop is a bitmap scan
//     plus a walk over the one or two events that share the tick — no sift,
//     whatever the queue depth. Whatever does not fit the wheel's window
//     (timers, flow starts, pulls paced far ahead) goes to a 4-ary heap,
//     and so does a bucket that a lock-step workload grew too long to walk.
//     popUntil takes the smaller (at, key) head of the two, so execution
//     order is the total (at, key) order a single heap would give and never
//     depends on which structure held an event.
//   - Pointer-free arrays: a wheel node and a heap entry hold the ordering
//     key (at, key) and the payload inline, and the payload names its
//     operands by int32 id — a link or timer id and a packet handle
//     (engine.go) — so a node is 32 bytes, one read brings in all of an
//     event, and the GC neither scans nor write-barriers the arrays that
//     pushes, pops, list surgery and sifting write.
//   - The far heap is 4-ary instead of binary: sift paths are half as deep
//     and the four children of a node sit in adjacent cache lines.
//
// Ordering is (at, key): key is the canonical event key (see engine.go),
// unique per event, so queue order — and therefore execution order — is
// total and never depends on which structure held an event or on the order
// of pushes.

// eventPayload is the non-key part of an event: 12 bytes, no pointer.
type eventPayload struct {
	kind eventKind
	ref  int32 // evTimer: timer id; evTxDone, evDeliver, evInject: link id
	pkt  int32 // evDeliver, evInject: packet handle
}

// earlier is the queue order: (at, key) before (bAt, bKey).
func earlier(at Time, key uint64, bAt Time, bKey uint64) bool {
	return at < bAt || (at == bAt && key < bKey)
}

// heapEntry is what the sift loops compare and move.
type heapEntry struct {
	at  Time
	key uint64
	pay eventPayload
}

func (a *heapEntry) less(b *heapEntry) bool { return earlier(a.at, a.key, b.at, b.key) }

// quadHeap is one 4-ary min-heap over (at, key).
type quadHeap struct {
	ent []heapEntry
}

func (h *quadHeap) len() int { return len(h.ent) }

func (h *quadHeap) push(at Time, key uint64, pay eventPayload) {
	e := heapEntry{at, key, pay}
	h.ent = append(h.ent, e)
	// Sift up with a hole: the new entry is held in registers and written
	// once at its final position.
	ent := h.ent
	i := len(ent) - 1
	for i > 0 {
		par := (i - 1) / 4
		if !e.less(&ent[par]) {
			break
		}
		ent[i] = ent[par]
		i = par
	}
	ent[i] = e
}

// pop removes and returns the minimum event.
func (h *quadHeap) pop() (Time, uint64, eventPayload) {
	at0, key0, pay0 := h.ent[0].at, h.ent[0].key, h.ent[0].pay
	last := len(h.ent) - 1
	e := h.ent[last]
	ent := h.ent[:last]
	h.ent = ent
	if last > 0 {
		// Sift the former tail down from the root, again with a hole.
		i := 0
		for {
			kid := 4*i + 1
			if kid >= last {
				break
			}
			end := kid + 4
			if end > last {
				end = last
			}
			m := kid
			for c := kid + 1; c < end; c++ {
				if ent[c].less(&ent[m]) {
					m = c
				}
			}
			if !ent[m].less(&e) {
				break
			}
			ent[i] = ent[m]
			i = m
		}
		ent[i] = e
	}
	return at0, key0, pay0
}

// The wheel's geometry. The bucket count is a constant — 256 and 4096 both
// measured within 3 % of it on the two simulation sweeps (PERF.md) — and
// the tick width, the one quantity that has to fit the simulated network,
// is derived from the transport mode's MTU (wheelShift), not set.
const (
	wheelBuckets = 1024
	wheelWords   = wheelBuckets / 64
	// wheelBucketCap bounds the list a pop walks: a bucket holds 1.3 events
	// on average, but flows started in lock-step on identical links
	// schedule hundreds of events at the same nanosecond. A pop that finds
	// a longer list moves it to the heap.
	wheelBucketCap = 32
)

// wheelShift returns the tick width, as a shift, for a queue whose near
// events are scheduled at most span ahead: the smallest power of two at
// which an event span after any instant of the window's first tick still
// lands inside the window, so that a packet event always finds a bucket
// and buckets stay as sparse as they can be.
func wheelShift(span Time) uint8 {
	var s uint8
	for s < 62 && Time(wheelBuckets-2)<<s < span {
		s++
	}
	return s
}

// wheelNode is one queued event in a bucket's list. Like heapEntry it is
// pointer-free and 32 bytes.
type wheelNode struct {
	at   Time
	key  uint64
	pay  eventPayload
	next int32 // next node of the same bucket, -1 at the end
}

// wheel is a calendar queue over the ticks [cur, cur+wheelBuckets), a tick
// being at>>shift. Every queued event's tick lies in that window, so
// events of different ticks never share a bucket and bucket order, read
// cyclically from cur, is time order. A bucket is an unsorted list — its
// minimum is found by walking it — and is valid only while its occupancy
// bit is set.
type wheel struct {
	shift uint8
	cur   int64 // tick of the last event popped from the engine's queue
	n     int
	occ   [wheelWords]uint64
	head  [wheelBuckets]int32
	node  []wheelNode // never longer than the live high-water mark
	free  []int32     // vacated nodes, reused LIFO
}

// push queues the event if its tick lies in the window and reports whether
// it did.
func (w *wheel) push(at Time, key uint64, pay eventPayload) bool {
	tick := int64(at) >> w.shift
	if uint64(tick-w.cur) >= wheelBuckets {
		return false
	}
	var s int32
	if n := len(w.free); n > 0 {
		s = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		s = int32(len(w.node))
		w.node = append(w.node, wheelNode{})
	}
	b := tick & (wheelBuckets - 1)
	next := int32(-1)
	if bit := uint64(1) << (b & 63); w.occ[b>>6]&bit != 0 {
		next = w.head[b]
	} else {
		w.occ[b>>6] |= bit
	}
	w.node[s] = wheelNode{at, key, pay, next}
	w.head[b] = s
	w.n++
	return true
}

// min locates the earliest queued event: its bucket, its node and the node
// before it in the bucket's list (-1 when it is the head). The wheel must
// not be empty. long reports a list beyond wheelBucketCap.
func (w *wheel) min() (b int, s, prev int32, long bool) {
	// First occupied bucket at or after cur's, wrapping around the ring:
	// the first word is read from cur's bit up, the rest whole, and a full
	// lap ends on the first word's low bits.
	b = int(w.cur & (wheelBuckets - 1))
	i := b >> 6
	m := w.occ[i] &^ (1<<(b&63) - 1)
	for m == 0 {
		i = (i + 1) & (wheelWords - 1)
		m = w.occ[i]
	}
	b = i<<6 | bits.TrailingZeros64(m)

	node := w.node
	s, prev = w.head[b], -1
	best := &node[s]
	walked := 0
	for p, c := s, best.next; c >= 0; p, c = c, node[c].next {
		if n := &node[c]; earlier(n.at, n.key, best.at, best.key) {
			s, prev, best = c, p, n
		}
		walked++
	}
	return b, s, prev, walked >= wheelBucketCap
}

// take unlinks the node min located and returns its payload.
func (w *wheel) take(b int, s, prev int32) eventPayload {
	next := w.node[s].next
	switch {
	case prev >= 0:
		w.node[prev].next = next
	case next >= 0:
		w.head[b] = next
	default:
		w.occ[b>>6] &^= 1 << (b & 63)
	}
	w.n--
	w.free = append(w.free, s)
	return w.node[s].pay
}

// eventHeap is the engine's event queue: the wheel for the near future and
// the heap for everything else behind one len/push/popUntil surface.
type eventHeap struct {
	near wheel
	far  quadHeap
}

func (h *eventHeap) len() int { return h.near.n + h.far.len() }

func (h *eventHeap) push(at Time, key uint64, pay eventPayload) {
	if !h.near.push(at, key, pay) {
		h.far.push(at, key, pay)
	}
}

// popUntil removes and returns the minimum event of the two structures by
// (at, key), unless the queue is empty or that event lies beyond limit.
// Popping moves the wheel's window up to the popped time: no later push can
// be earlier (Engine.push clamps to the clock).
func (h *eventHeap) popUntil(limit Time) (at Time, key uint64, pay eventPayload, ok bool) {
	w := &h.near
	if w.n > 0 {
		b, s, prev, long := w.min()
		if long {
			// Past the cap a sift is cheaper than the walk: the bucket
			// moves to the heap, each event once, and the pop starts over.
			for w.occ[b>>6]>>(b&63)&1 != 0 {
				first := w.node[w.head[b]]
				h.far.push(first.at, first.key, w.take(b, w.head[b], -1))
			}
			return h.popUntil(limit)
		}
		nd := w.node[s]
		if h.far.len() == 0 || earlier(nd.at, nd.key, h.far.ent[0].at, h.far.ent[0].key) {
			if nd.at > limit {
				return 0, 0, eventPayload{}, false
			}
			w.cur = int64(nd.at) >> w.shift
			return nd.at, nd.key, w.take(b, s, prev), true
		}
	}
	if h.far.len() == 0 || h.far.ent[0].at > limit {
		return 0, 0, eventPayload{}, false
	}
	at, key, pay = h.far.pop()
	w.cur = int64(at) >> w.shift
	return at, key, pay, true
}
