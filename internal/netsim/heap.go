package netsim

// Per-shard event storage. The heap is the simulator's hottest data
// structure, so its layout is built around three decisions:
//
//   - 4-ary instead of binary: sift paths are half as deep and the four
//     children of a node sit in adjacent cache lines.
//   - Pointer-free sift array: a heap entry is the ordering key (at, key)
//     plus an int32 slot reference. The payload (callback / link / packet
//     operands) sits out of line in a slot table with a free list; it is
//     written once on push and cleared once on pop, so sifting never moves
//     a pointer and the GC neither scans nor write-barriers the heap array.
//   - Packet events and timers queue apart: evTxDone/evDeliver live about
//     one serialization or link delay, evFunc timers about an RTO — and
//     most of those are stale by the time they fire (every ACK arms a
//     fresh RTO). Kept together, thousands of dead timers deepen every
//     packet-event sift; apart, the packet heap holds a few hundred
//     entries. pop takes the smaller of the two heads, so execution order
//     is the same total (at, key) order a single heap would give.
//
// Ordering is (at, key): key is the canonical event key (see engine.go),
// unique per event, which makes heap order — and therefore execution
// order — independent of the shard count.

// eventPayload is the non-key part of an event.
type eventPayload struct {
	kind eventKind
	fn   func(*Shard) // evFunc only
	link *link        // evTxDone, evDeliver
	pkt  *Packet      // evTxDone, evDeliver
}

// heapEntry is what the sift loops compare and move.
type heapEntry struct {
	at   Time
	key  uint64
	slot int32 // index into quadHeap.pay
}

func (a *heapEntry) less(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// quadHeap is one 4-ary min-heap over (at, key) with out-of-line payloads.
type quadHeap struct {
	ent  []heapEntry
	pay  []eventPayload // slot table; never longer than the live high-water mark
	free []int32        // vacated slots, reused LIFO
}

func (h *quadHeap) len() int { return len(h.ent) }

// headBefore reports whether h's minimum orders before o's. An empty heap
// orders after everything.
func (h *quadHeap) headBefore(o *quadHeap) bool {
	if len(o.ent) == 0 {
		return true
	}
	if len(h.ent) == 0 {
		return false
	}
	return h.ent[0].less(&o.ent[0])
}

func (h *quadHeap) push(at Time, key uint64, pay eventPayload) {
	var s int32
	if n := len(h.free); n > 0 {
		s = h.free[n-1]
		h.free = h.free[:n-1]
		h.pay[s] = pay
	} else {
		s = int32(len(h.pay))
		h.pay = append(h.pay, pay)
	}
	e := heapEntry{at, key, s}
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
func (h *quadHeap) pop() (Time, eventPayload) {
	at0, s0 := h.ent[0].at, h.ent[0].slot
	pay0 := h.pay[s0]
	h.pay[s0] = eventPayload{} // clear fn/link/pkt for the GC
	h.free = append(h.free, s0)
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
	return at0, pay0
}

// eventHeap is a shard's event queue: the packet-event heap and the timer
// heap behind one len/minAt/push/pop surface.
type eventHeap struct {
	pkt quadHeap // evTxDone, evDeliver
	tmr quadHeap // evFunc
}

func (h *eventHeap) len() int { return h.pkt.len() + h.tmr.len() }

// minAt returns the earliest queued time, or maxTime when empty.
func (h *eventHeap) minAt() Time {
	t := maxTime
	if h.pkt.len() > 0 {
		t = h.pkt.ent[0].at
	}
	if h.tmr.len() > 0 && h.tmr.ent[0].at < t {
		t = h.tmr.ent[0].at
	}
	return t
}

func (h *eventHeap) push(at Time, key uint64, pay eventPayload) {
	if pay.kind == evFunc {
		h.tmr.push(at, key, pay)
	} else {
		h.pkt.push(at, key, pay)
	}
}

// pop removes and returns the minimum event of the two heaps by (at, key).
func (h *eventHeap) pop() (Time, eventPayload) {
	if h.pkt.headBefore(&h.tmr) {
		return h.pkt.pop()
	}
	return h.tmr.pop()
}
