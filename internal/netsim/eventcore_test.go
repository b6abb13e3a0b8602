package netsim

import (
	"hash/fnv"
	"runtime"
	"sort"
	"testing"
)

// TestFlowHashMatchesFNV pins the inlined ECMP hash to hash/fnv: one
// differing bit would move every golden.
func TestFlowHashMatchesFNV(t *testing.T) {
	rng := randNew(7)
	for i := 0; i < 5000; i++ {
		flowID, salt, r := int32(rng.Uint32()), rng.Uint32(), int(rng.Int31())
		kind, layer := PktKind(rng.Intn(4)), int8(rng.Intn(256)-128)
		buf := [14]byte{
			byte(flowID), byte(flowID >> 8), byte(flowID >> 16), byte(flowID >> 24),
			byte(salt), byte(salt >> 8), byte(salt >> 16), byte(salt >> 24),
			byte(r), byte(r >> 8), byte(r >> 16), byte(r >> 24),
			byte(kind), byte(layer),
		}
		ref := fnv.New32a()
		ref.Write(buf[:])
		if got, want := flowHash(flowID, salt, r, kind, layer), ref.Sum32(); got != want {
			t.Fatalf("flowHash(%d,%d,%d,%d,%d) = %#x, hash/fnv says %#x", flowID, salt, r, kind, layer, got, want)
		}
	}
}

// TestEventHeapOrderProperty drives random interleavings of packet and
// timer pushes and pops, with many equal times, through the split heap, a
// lone quadHeap fed everything, and a sorted-slice model: all three must
// pop in (at, key) order. Along the way the slot tables may never outgrow
// their heap's live high-water mark, and vacated slots must hold nothing.
func TestEventHeapOrderProperty(t *testing.T) {
	type ev struct {
		at  Time
		key uint64
		id  int32
	}
	rng := randNew(3)
	var h eventHeap
	var single quadHeap
	var model []ev
	var pktHW, tmrHW int
	var fired int32
	ident := func(p eventPayload) int32 {
		if p.kind == evFunc {
			p.fn(nil)
			return fired
		}
		return p.pkt.Seq
	}
	checkSlots := func(name string, q *quadHeap, hw int) {
		t.Helper()
		if len(q.pay) > hw {
			t.Fatalf("%s slot table has %d slots, live high-water is %d", name, len(q.pay), hw)
		}
		if len(q.free)+q.len() != len(q.pay) {
			t.Fatalf("%s: %d free + %d live slots != table size %d", name, len(q.free), q.len(), len(q.pay))
		}
		for _, s := range q.free {
			if p := q.pay[s]; p.fn != nil || p.link != nil || p.pkt != nil {
				t.Fatalf("%s: vacated slot %d still holds a payload", name, s)
			}
		}
	}
	base := Time(0)
	for op, next := 0, int32(0); op < 20000; op++ {
		if len(model) == 0 || rng.Intn(100) < 52 {
			id := next
			next++
			e := ev{at: base + Time(rng.Intn(6)), key: uint64(rng.Uint32())<<32 | uint64(id), id: id}
			pay := eventPayload{kind: evDeliver, link: &link{}, pkt: &Packet{Seq: id}}
			if rng.Intn(3) == 0 {
				pay = eventPayload{kind: evFunc, fn: func(*Shard) { fired = id }}
			}
			h.push(e.at, e.key, pay)
			single.push(e.at, e.key, pay)
			model = append(model, e)
			pktHW, tmrHW = max(pktHW, h.pkt.len()), max(tmrHW, h.tmr.len())
		} else {
			sort.Slice(model, func(i, j int) bool {
				return model[i].at < model[j].at || (model[i].at == model[j].at && model[i].key < model[j].key)
			})
			want := model[0]
			model = model[1:]
			if got := h.minAt(); got != want.at {
				t.Fatalf("op %d: minAt = %d, model says %d", op, got, want.at)
			}
			at, pay := h.pop()
			sat, spay := single.pop()
			if at != want.at || ident(pay) != want.id || sat != want.at || ident(spay) != want.id {
				t.Fatalf("op %d: popped (%d,#%d) split / (%d,#%d) single, model says (%d,#%d)",
					op, at, ident(pay), sat, ident(spay), want.at, want.id)
			}
			base = at // time never runs backwards, as in the engine
		}
		if h.len() != len(model) {
			t.Fatalf("op %d: len = %d, model holds %d", op, h.len(), len(model))
		}
		if op%64 == 0 {
			checkSlots("packet", &h.pkt, pktHW)
			checkSlots("timer", &h.tmr, tmrHW)
		}
	}
	for h.len() > 0 {
		h.pop()
	}
	checkSlots("packet", &h.pkt, pktHW)
	checkSlots("timer", &h.tmr, tmrHW)
	if h.minAt() != maxTime {
		t.Fatal("empty heap must report maxTime")
	}
}

// TestPktRingFIFO covers the ring alone: order across wrap-around, growth
// while the contents are wrapped, and popped slots released.
func TestPktRingFIFO(t *testing.T) {
	var r pktRing
	next, want := int32(0), int32(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.push(&Packet{Seq: next})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if p := r.pop(); p.Seq != want {
				t.Fatalf("popped seq %d, want %d", p.Seq, want)
			}
			want++
		}
	}
	push(3)
	pop(2)
	push(3) // wraps: 4 slots, head at 2
	if len(r.buf) != 4 || r.head != 2 || r.len() != 4 {
		t.Fatalf("ring not wrapped as intended: cap=%d head=%d len=%d", len(r.buf), r.head, r.len())
	}
	push(1) // grows while wrapped
	if len(r.buf) != 8 || r.len() != 5 {
		t.Fatalf("after growth cap=%d len=%d, want 8 and 5", len(r.buf), r.len())
	}
	for round := 0; round < 50; round++ { // many laps around a fixed-size ring
		push(3)
		pop(3)
	}
	if len(r.buf) != 8 {
		t.Fatalf("steady-state traffic grew the ring to %d", len(r.buf))
	}
	pop(r.len())
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped packet", i)
		}
	}
}

// TestLinkQueueBehaviour pins what enqueue/kick did before the queues
// became rings: capacity limits (not the ring's power-of-two size) bound
// occupancy, the ECN threshold marks on the same arrival, a full queue
// trims into the priority queue or tail-drops, and the priority queue is
// served first, each queue in FIFO order.
func TestLinkQueueBehaviour(t *testing.T) {
	for _, trim := range []bool{false, true} {
		cfg := TCPDefaults(TransportTCP)
		cfg.QueueCap, cfg.PrioQueueCap, cfg.ECNThreshold, cfg.TrimMode = 5, 4, 4, trim
		s := starSim(t, 2, cfg)
		sh, l := s.Eng.shards[0], s.Net.hostUp[0]
		l.busy = true // hold the transmitter so arrivals accumulate
		data := func(seq int32) *Packet {
			p := sh.newPacket()
			*p = Packet{Seq: seq, Bytes: 1500, Kind: KindData}
			sh.inflight++
			return p
		}
		ack := sh.newPacket()
		*ack = Packet{Seq: 100, Bytes: HeaderBytes, Kind: KindAck}
		sh.inflight++
		l.enqueue(sh, ack) // control traffic goes straight to the priority queue
		var pkts []*Packet
		for seq := int32(0); seq < 10; seq++ {
			p := data(seq)
			pkts = append(pkts, p)
			l.enqueue(sh, p)
		}
		if l.q.len() != 5 {
			t.Fatalf("trim=%v: data queue holds %d, capacity is 5", trim, l.q.len())
		}
		for seq, p := range pkts[:5] {
			if want := seq+1 >= 4; p.ECN != want {
				t.Fatalf("trim=%v: seq %d ECN=%v, want %v (threshold 4)", trim, seq, p.ECN, want)
			}
		}
		// Five overflow arrivals: trimmed into the 4-deep priority queue
		// behind the ACK (two dropped), or all tail-dropped.
		wantPQ, wantTrims, wantDrops := 1, int64(0), int64(5)
		if trim {
			wantPQ, wantTrims, wantDrops = 4, 3, 2
		}
		if l.pq.len() != wantPQ || l.Trims != wantTrims || l.Drops != wantDrops {
			t.Fatalf("trim=%v: pq=%d trims=%d drops=%d, want %d/%d/%d",
				trim, l.pq.len(), l.Trims, l.Drops, wantPQ, wantTrims, wantDrops)
		}
		// Serve everything: priority queue first, FIFO within each queue.
		wantOrder := []int32{100, 0, 1, 2, 3, 4}
		if trim {
			wantOrder = []int32{100, 5, 6, 7, 0, 1, 2, 3, 4}
		}
		for i, want := range wantOrder {
			l.busy = false
			l.kick(sh)
			_, pay := sh.heap.pop()
			if pay.kind != evTxDone || pay.pkt.Seq != want {
				t.Fatalf("trim=%v: transmission %d sent seq %d, want %d", trim, i, pay.pkt.Seq, want)
			}
			if trim && want >= 5 && want < 100 && (!pay.pkt.Trimmed || pay.pkt.Bytes != HeaderBytes) {
				t.Fatalf("trim=%v: seq %d left untrimmed", trim, want)
			}
		}
		l.busy = false
		l.kick(sh)
		if l.busy || sh.heap.len() != 0 {
			t.Fatalf("trim=%v: empty link started a transmission", trim)
		}
	}
}

// permSim loads a full permutation of long flows onto a 4-layer SF q=5
// fabric at a fixed seed: the steady-state workload of the two tests below.
func permSim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	tp, fwd := shardFabric(t, 5, 4, 0.6, 11)
	cfg.Seed = 42
	s := NewSim(tp, fwd, cfg)
	n := tp.N()
	for i := 0; i < n; i++ {
		s.AddFlow(FlowSpec{Src: int32(i), Dst: int32((i + n/2) % n), Bytes: 256 << 10, Start: Time(i) * Microsecond})
	}
	return s
}

var eventCoreCases = []struct {
	name           string
	cfg            Config
	events         int64 // Eng.Executed() after Run(50ms), recorded before the event-core rebuild
	queueHighWater int   // Eng.QueueHighWater(), likewise
	retx           int64 // FlowResult.Retx summed over flows: moves with any window-law slip
	allocCeiling   float64
}{
	{"tcp", TCPDefaults(TransportTCP), 684374, 17182, 453, 0.10},
	{"dctcp", TCPDefaults(TransportDCTCP), 727144, 16735, 5879, 0.10},
	{"mptcp", TCPDefaults(TransportMPTCP), 692516, 19996, 2294, 0.10},
	{"ndp", NDPDefaults(), 158906, 765, 2932, 0.10},
}

// TestEventCountPinned holds the simulated model fixed while its cost
// changes: a fixed-seed run of each transport must execute exactly the
// events, and reach exactly the queue depth, it did with the single inline-
// payload heap and slice queues (dctcp, ndp) and with tcp.go and mptcp.go
// as separate Reno machines (tcp, mptcp, and the retransmission sums).
func TestEventCountPinned(t *testing.T) {
	for _, c := range eventCoreCases {
		s := permSim(t, c.cfg)
		res := s.Run(50 * Millisecond)
		if CompletedFraction(res) != 1 {
			t.Fatalf("%s: only %.3f of flows completed", c.name, CompletedFraction(res))
		}
		var retx int64
		for _, r := range res {
			retx += r.Retx
		}
		if retx != c.retx {
			t.Errorf("%s: %d retransmissions, pinned %d", c.name, retx, c.retx)
		}
		if got := s.Eng.Executed(); got != c.events {
			t.Errorf("%s: executed %d events, pinned %d", c.name, got, c.events)
		}
		if got := s.Eng.QueueHighWater(); got != c.queueHighWater {
			t.Errorf("%s: queue high-water %d, pinned %d", c.name, got, c.queueHighWater)
		}
	}
}

// TestAllocsPerEventCeiling bounds the event loop's steady-state heap
// allocations: after a warm-up that sizes heaps, rings and the packet
// arena, what remains is one closure per RTO re-arm or paced pull (it was
// ≈0.45 when link queues re-allocated every few packets). Not parallel, so
// no other test's allocations land in the delta.
func TestAllocsPerEventCeiling(t *testing.T) {
	for _, c := range eventCoreCases {
		s := permSim(t, c.cfg)
		s.Eng.Run(200 * Microsecond)
		warm := s.Eng.Executed()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Eng.Run(50 * Millisecond)
		runtime.ReadMemStats(&after)
		events := s.Eng.Executed() - warm
		if events < 100000 {
			t.Fatalf("%s: only %d events after warm-up, workload too small to measure", c.name, events)
		}
		got := float64(after.Mallocs-before.Mallocs) / float64(events)
		t.Logf("%s: %.3f allocs/event over %d events", c.name, got, events)
		if got > c.allocCeiling {
			t.Errorf("%s: %.3f allocs/event, ceiling %.2f", c.name, got, c.allocCeiling)
		}
	}
}
