package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/routing"
	"repro/internal/topo"
)

// maxTime is the latest representable time: popUntil(maxTime) and
// Run(maxTime) drain the queue.
const maxTime = Time(1<<63 - 1)

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

// queueCheck drives one script of pushes and pops through the event queue
// (wheel + far heap), a lone quadHeap fed everything, and a sorted-slice
// model: all three must pop in (at, key) order, each event with its own
// payload. Along the way the wheel's node array may never outgrow its live
// high-water mark, free and live nodes must add up, and the buckets must
// list exactly the events the wheel counts.
type queueCheck struct {
	t      testing.TB
	h      eventHeap
	single quadHeap
	model  []queuedEv
	now    Time // time of the last pop: pushes never go below it, as in the engine
	next   int32
	nearHW int
	farHW  int
}

type queuedEv struct {
	at  Time
	key uint64
	id  int32
}

func newQueueCheck(t testing.TB, shift uint8) *queueCheck {
	q := &queueCheck{t: t}
	q.h.near.shift = shift
	return q
}

// push queues a fresh event delta after the last popped time, as a packet
// event (its packet handle is the event's id) or as a timer event (the
// timer id is).
func (q *queueCheck) push(delta Time, keyHi uint32, callback bool) {
	id := q.next
	q.next++
	e := queuedEv{at: q.now + delta, key: uint64(keyHi)<<32 | uint64(id), id: id}
	pay := eventPayload{kind: evDeliver, ref: -1, pkt: id}
	if callback {
		pay = eventPayload{kind: evTimer, ref: id, pkt: -1}
	}
	q.h.push(e.at, e.key, pay)
	q.single.push(e.at, e.key, pay)
	q.model = append(q.model, e)
	q.nearHW = max(q.nearHW, q.h.near.n)
	q.checkLen()
}

// ident returns the id push gave the event of payload p, or -2 when p is
// not one push can have made.
func (q *queueCheck) ident(p eventPayload) int32 {
	switch {
	case p.kind == evTimer && p.pkt == -1:
		return p.ref
	case p.kind == evDeliver && p.ref == -1:
		return p.pkt
	}
	return -2
}

// pop removes the minimum from all three and compares; on an empty queue
// it checks that the queue says so.
func (q *queueCheck) pop() {
	q.t.Helper()
	if len(q.model) == 0 {
		if _, _, _, ok := q.h.popUntil(maxTime); ok || q.h.len() != 0 {
			q.t.Fatal("empty queue popped an event or reported a length")
		}
		return
	}
	sort.Slice(q.model, func(i, j int) bool {
		a, b := q.model[i], q.model[j]
		return a.at < b.at || (a.at == b.at && a.key < b.key)
	})
	want := q.model[0]
	q.model = q.model[1:]
	// The head is due at want.at exactly: nothing pops one tick short of it.
	if _, _, _, ok := q.h.popUntil(want.at - 1); ok {
		q.t.Fatalf("popUntil(%d) popped an event due at %d", want.at-1, want.at)
	}
	at, key, pay, ok := q.h.popUntil(want.at)
	sat, skey, spay := q.single.pop()
	if !ok || at != want.at || key != want.key || q.ident(pay) != want.id ||
		sat != want.at || skey != want.key || q.ident(spay) != want.id {
		q.t.Fatalf("popped (%d,%#x) ok=%v from the queue, (%d,%#x) from the lone heap, model says (%d,%#x)",
			at, key, ok, sat, skey, want.at, want.key)
	}
	q.now = at
	q.checkLen()
}

func (q *queueCheck) checkLen() {
	q.t.Helper()
	q.farHW = max(q.farHW, q.h.far.len()+1) // +1: a pop may have moved a bucket over before taking its event
	if q.h.len() != len(q.model) {
		q.t.Fatalf("len = %d, model holds %d", q.h.len(), len(q.model))
	}
}

func (q *queueCheck) checkSlots() {
	q.t.Helper()
	w := &q.h.near
	if len(w.node) > q.nearHW {
		q.t.Fatalf("wheel has %d nodes, live high-water is %d", len(w.node), q.nearHW)
	}
	if len(w.free)+w.n != len(w.node) {
		q.t.Fatalf("wheel: %d free + %d live nodes != %d nodes", len(w.free), w.n, len(w.node))
	}
	held := 0
	for b := range w.head {
		if w.occ[b>>6]>>(b&63)&1 == 0 {
			continue
		}
		for c := w.head[b]; c >= 0; c = w.node[c].next {
			if int64(w.node[c].at)>>w.shift&(wheelBuckets-1) != int64(b) {
				q.t.Fatalf("wheel: bucket %d lists an event of tick %d", b, int64(w.node[c].at)>>w.shift)
			}
			held++
		}
	}
	if held != w.n {
		q.t.Fatalf("wheel: buckets list %d events, the wheel counts %d", held, w.n)
	}
}

// TestEventHeapOrderProperty drives random interleavings of packet-event
// and callback pushes and pops through queueCheck at three tick widths.
// Deltas are drawn, in ticks, to hit every regime of the wheel: a few
// ticks (many equal times and shared buckets), anywhere in the window,
// its last tick and the first one beyond it, and far past it (the far
// heap, and events that enter the window's range only after time has moved
// up); now and then a burst at one instant grows a bucket past
// wheelBucketCap, which the pop that reaches it must move to the heap.
// Pops advance time, so the bucket ring wraps many times over.
func TestEventHeapOrderProperty(t *testing.T) {
	for _, shift := range []uint8{0, 3, 12} {
		rng := randNew(3 + int64(shift))
		q := newQueueCheck(t, shift)
		tick := Time(1) << shift
		for op := 0; op < 20000; op++ {
			if len(q.model) == 0 || rng.Intn(100) < 52 {
				var delta Time
				switch r := rng.Intn(20); {
				case r < 10:
					delta = Time(rng.Intn(6)) * tick / 2
				case r < 15:
					delta = Time(rng.Intn(wheelBuckets)) * tick
				case r < 17:
					delta = Time(wheelBuckets-2+rng.Intn(3))*tick + Time(rng.Intn(2))*(tick-1)
				default:
					delta = Time(wheelBuckets+rng.Intn(3*wheelBuckets)) * tick
				}
				if rng.Intn(4) == 0 {
					// A refused pop before the push: whatever locating the
					// head learnt must not outlive a push that undercuts it.
					q.h.popUntil(q.now - 1)
				}
				q.push(delta, rng.Uint32(), rng.Intn(3) == 0)
				if rng.Intn(200) == 0 {
					for i := 0; i < 2*wheelBucketCap; i++ {
						q.push(delta, rng.Uint32(), false)
					}
				}
			} else {
				q.pop()
			}
			if op%64 == 0 {
				q.checkSlots()
			}
		}
		if q.nearHW == 0 || q.farHW == 0 {
			t.Fatalf("shift %d: script left a structure unused (wheel high-water %d, far %d)", shift, q.nearHW, q.farHW)
		}
		for len(q.model) > 0 {
			q.pop()
		}
		q.pop() // empty
		q.checkSlots()
	}
}

// FuzzEventQueue turns arbitrary bytes into a push/pop script for
// queueCheck: the first byte picks the tick width, then every three bytes
// are one operation — a pop, or a push whose delta spans up to 64 Ki ticks
// scaled down by 0, 4, 8 or 12 bits, so short and window-overflowing
// distances both come up.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0}) // the corpus proper is committed under testdata/fuzz/FuzzEventQueue
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		q := newQueueCheck(t, script[0]%16)
		for ops := script[1:]; len(ops) >= 3 && len(q.model) < 512; ops = ops[3:] {
			op, lo, hi := ops[0], ops[1], ops[2]
			if op&3 == 0 {
				q.pop()
				continue
			}
			delta := (Time(hi)<<8 | Time(lo)) << q.h.near.shift >> (4 * (op >> 2 & 3))
			q.push(delta, uint32(op>>4), op&3 == 3)
		}
		q.checkSlots()
		for len(q.model) > 0 {
			q.pop()
		}
		q.checkSlots()
	})
}

// TestTimerModel runs random arm sequences — later, earlier and equal-time
// deadlines, re-arms from inside fire, arms after an idle fire — through
// the live timers and through the scheme they replaced, kept here as the
// model: one queue entry and one closure per arm, a generation counter
// deciding at pop time whether the entry is the live one. fire must run
// exactly when the model's live generation does, at the same (at, key),
// and therefore never for a superseded arm.
func TestTimerModel(t *testing.T) {
	const timers, parts = 5, 2
	type firing struct {
		at    Time
		key   uint64
		timer int
	}
	type driverOp struct {
		at    Time
		timer int
		mode  int  // 0: fresh delay, 1: same deadline again, 2: earlier, 3: later
		d     Time // the fresh delay, or the distance for modes 2 and 3
	}
	run := func(seed int64, lazy bool) (log []firing, events int64) {
		rng := randNew(seed)
		var script []driverOp
		for at := Time(0); at < 60000; at += Time(rng.Intn(90)) {
			script = append(script, driverOp{at, rng.Intn(timers), rng.Intn(4), Time(rng.Intn(1500))})
		}
		// What fire does is a function of (timer, firing count) alone, so
		// both schemes see the same decisions: idle, or re-arm from inside.
		onFire := make([][]Time, timers)
		for i := range onFire {
			for k := 0; k < 4096; k++ {
				d := Time(-1)
				if rng.Intn(3) > 0 {
					d = Time(rng.Intn(1200))
				}
				onFire[i] = append(onFire[i], d)
			}
		}

		e := NewEngine(parts, 100) // a 1 ns tick: deadlines land in the wheel and beyond it
		var tms [timers]timer
		var gen, fires [timers]int
		var deadline [timers]Time
		var arm func(e *Engine, i int, d Time)
		fire := func(e *Engine, i int, key uint64) {
			log = append(log, firing{e.Now(), key, i})
			fires[i]++
			if d := onFire[i][fires[i]]; d >= 0 {
				arm(e, i, d)
			}
		}
		arm = func(e *Engine, i int, d Time) {
			part := int32(i % parts)
			deadline[i] = e.Now() + d
			if lazy {
				e.arm(&tms[i], part, e.Now()+d)
				return
			}
			gen[i]++
			g := gen[i]
			key := localKey(part, e.seq[part]+1)
			e.AtPart(e.Now()+d, part, func(e *Engine) {
				if g == gen[i] {
					fire(e, i, key)
				}
			})
		}
		for i := range tms {
			i := i
			tms[i].fire = func(e *Engine) { fire(e, i, tms[i].key) }
		}
		for _, op := range script {
			op := op
			e.AtPart(op.at, int32(op.timer%parts), func(e *Engine) {
				left := deadline[op.timer] - e.Now()
				d := op.d
				switch {
				case left <= 0 || op.mode == 0:
				case op.mode == 1:
					d = left
				case op.mode == 2:
					d = left - min(left, 1+op.d%left)
				default:
					d = left + 1 + op.d
				}
				arm(e, op.timer, d)
			})
		}
		e.Run(maxTime)
		return log, e.Executed()
	}
	for seed := int64(1); seed <= 20; seed++ {
		got, gotEvents := run(seed, true)
		want, wantEvents := run(seed, false)
		if len(want) < 100 {
			t.Fatalf("seed %d: only %d firings, script too tame", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: firing %d differs: live timers %+v, model %+v (of %d / %d)",
						seed, i, got[min(i, len(got)-1)], want[i], len(got), len(want))
				}
			}
			t.Fatalf("seed %d: live timers fired %d times, model %d", seed, len(got), len(want))
		}
		if gotEvents >= wantEvents {
			t.Errorf("seed %d: live timers executed %d events, one entry per arm %d", seed, gotEvents, wantEvents)
		}
	}
}

// TestPktRingFIFO covers the ring alone: order across wrap-around, growth
// while the contents are wrapped, and growth bounded by the queue's
// capacity. (A popped slot keeps its stale handle: it pins nothing, which
// TestHotLayoutPointerFree holds.)
func TestPktRingFIFO(t *testing.T) {
	r := pktRing{limit: 100}
	next, want := int32(0), int32(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if h := r.pop(); h != want {
				t.Fatalf("popped handle %d, want %d", h, want)
			}
			want++
		}
	}
	push(6)
	pop(4)
	push(6) // wraps: 8 slots, head at 4
	if len(r.buf) != 8 || r.head != 4 || r.len() != 8 {
		t.Fatalf("ring not wrapped as intended: cap=%d head=%d len=%d", len(r.buf), r.head, r.len())
	}
	push(1) // doubles while wrapped
	if len(r.buf) != 16 || r.len() != 9 {
		t.Fatalf("after growth cap=%d len=%d, want 16 and 9", len(r.buf), r.len())
	}
	for round := 0; round < 50; round++ { // many laps around a fixed-size ring
		push(3)
		pop(3)
	}
	if len(r.buf) != 16 {
		t.Fatalf("steady-state traffic grew the ring to %d", len(r.buf))
	}
	push(int(r.limit) - r.len()) // full: 128 slots hold 100
	if len(r.buf) != 128 || !r.full() {
		t.Fatalf("at capacity %d: cap=%d len=%d", r.limit, len(r.buf), r.len())
	}
	pop(r.len())
	if r.len() != 0 || next != want {
		t.Fatalf("drained ring holds %d, %d pushed and %d popped", r.len(), next, want)
	}
	for _, c := range []struct {
		limit int32
		size  int
	}{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {64, 16}} {
		r := pktRing{limit: c.limit}
		for !r.full() && r.len() < 9 {
			r.push(0)
		}
		if len(r.buf) != c.size {
			t.Errorf("limit %d: %d pushes grew the ring to %d slots, want %d", c.limit, r.len(), len(r.buf), c.size)
		}
	}
}

// TestHotLayoutPointerFree pins the layout of what the event loop writes
// per event and per packet: queued events, ring slots and arena packets
// hold no Go pointer, so pushes, pops and ring traffic pay no GC write
// barrier, and a queue node and a link keep their sizes. A field that
// brings a pointer back fails here, not as a slowdown.
func TestHotLayoutPointerFree(t *testing.T) {
	var holdsPointer func(reflect.Type) bool
	holdsPointer = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Func, reflect.Interface, reflect.String, reflect.Chan:
			return true
		case reflect.Array:
			return holdsPointer(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if holdsPointer(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	for _, ty := range []reflect.Type{
		reflect.TypeFor[eventPayload](),
		reflect.TypeFor[wheelNode](),
		reflect.TypeFor[heapEntry](),
		reflect.TypeFor[Packet](),
		reflect.TypeOf(pktRing{}.buf).Elem(),        // a ring slot
		reflect.TypeOf(Engine{}.pkts).Elem().Elem(), // an arena chunk
		reflect.TypeOf(Engine{}.pfree).Elem(),       // a free handle
	} {
		if holdsPointer(ty) {
			t.Errorf("%v holds a pointer", ty)
		}
	}
	for _, c := range []struct {
		ty   reflect.Type
		want uintptr
	}{{reflect.TypeFor[wheelNode](), 32}, {reflect.TypeFor[heapEntry](), 32}} {
		if got := c.ty.Size(); got != c.want {
			t.Errorf("%v is %d B, want %d", c.ty, got, c.want)
		}
	}
	if got := reflect.TypeFor[link]().Size(); got > 144 {
		t.Errorf("link is %d B, want at most 144", got)
	}
}

// TestLinkQueueBehaviour pins what a link's queues did before they became
// rings: capacity limits (not the ring's power-of-two size) bound
// occupancy, the ECN threshold marks on the same arrival, a full queue
// trims into the priority queue or tail-drops, and the priority queue is
// served first, each queue in FIFO order.
func TestLinkQueueBehaviour(t *testing.T) {
	for _, trim := range []bool{false, true} {
		s := starSim(t, 2, TCPDefaults(TransportTCP))
		s.Net.model.ecnThreshold, s.Net.model.trim = 4, trim
		e, l := s.Eng, s.Net.hostUp[0]
		l.q.limit, l.pq.limit = 5, 4
		l.txEnd = maxTime // hold the transmitter so arrivals accumulate
		data := func(seq int32) int32 {
			e.inflight++
			return e.newPacket(Packet{Seq: seq, Bytes: 1500, Kind: KindData})
		}
		ack := e.newPacket(Packet{Seq: 100, Bytes: HeaderBytes, Kind: KindAck})
		e.inflight++
		l.enqueue(e, ack, e.pkt(ack)) // control traffic goes straight to the priority queue
		var pkts []*Packet
		for seq := int32(0); seq < 10; seq++ {
			h := data(seq)
			pkts = append(pkts, e.pkt(h))
			l.enqueue(e, h, e.pkt(h))
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
		// Arrivals behind the held transmission queued its tx-done once.
		if _, _, pay, _ := e.queue.popUntil(maxTime); pay.kind != evTxDone || pay.ref != l.id || e.queue.len() != 0 {
			t.Fatalf("trim=%v: waiting packets queued %d events, want the link's one tx-done", trim, e.queue.len()+1)
		}
		// Serve everything: priority queue first, FIFO within each queue.
		// Each transmission queues its delivery, and its tx-done only while
		// another packet waits.
		wantOrder := []int32{100, 0, 1, 2, 3, 4}
		if trim {
			wantOrder = []int32{100, 5, 6, 7, 0, 1, 2, 3, 4}
		}
		for i, want := range wantOrder {
			l.txDone(e)
			var sent *Packet
			txDones := 0
			for e.queue.len() > 0 {
				_, _, pay, _ := e.queue.popUntil(maxTime)
				if pay.kind == evTxDone {
					txDones++
				} else {
					sent = e.pkt(pay.pkt)
				}
			}
			if sent == nil || sent.Seq != want {
				t.Fatalf("trim=%v: transmission %d sent %+v, want seq %d", trim, i, sent, want)
			}
			if trim && want >= 5 && want < 100 && (!sent.Trimmed || sent.Bytes != HeaderBytes) {
				t.Fatalf("trim=%v: seq %d left untrimmed", trim, want)
			}
			wantTxDones := 1 // another packet waits
			if i == len(wantOrder)-1 {
				wantTxDones = 0
			}
			if txDones != wantTxDones {
				t.Fatalf("trim=%v: transmission %d queued %d tx-done events, want %d", trim, i, txDones, wantTxDones)
			}
		}
	}
}

// sfFabric builds a SlimFly fabric with random layers: one topology and one
// set of forwarding tables serve every simulation of a test, exactly as
// replicates share them in production.
func sfFabric(t *testing.T, q, nLayers int, rho float64, seed int64) (*topo.Topology, *routing.Engine) {
	t.Helper()
	sf, err := topo.SlimFly(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := layers.Random(sf.G, nLayers, rho, graph.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sf, routing.NewEngine(ls.Base, ls.Masks(), seed)
}

// permSim loads a full permutation of long flows onto a 4-layer SF q=5
// fabric at a fixed seed: the steady-state workload of the tests below.
func permSim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	tp, fwd := sfFabric(t, 5, 4, 0.6, 11)
	cfg.Seed = 42
	s := NewSim(tp, fwd, cfg)
	n := tp.N()
	for i := 0; i < n; i++ {
		s.AddFlow(FlowSpec{Src: int32(i), Dst: int32((i + n/2) % n), Bytes: 256 << 10, Start: Time(i) * Microsecond})
	}
	return s
}

// mixedSim loads the same fabric with half a permutation of 96 KiB flows
// plus a six-to-one incast onto host 0, which stresses trims, timeouts and
// control traffic; failLinks fails every tenth router-router link under the
// flows first (the ext-failures leg: packets die on failed links and flows
// re-route or stall).
func mixedSim(t *testing.T, cfg Config, failLinks bool) *Sim {
	t.Helper()
	tp, fwd := sfFabric(t, 5, 4, 0.6, 11)
	cfg.Seed = 42
	s := NewSim(tp, fwd, cfg)
	if failLinks {
		s.Net.FailRandomLinks(tp.G.M()/10, graph.NewRand(cfg.Seed))
	}
	n := tp.N()
	half := n / 2
	for i := 0; i < half; i++ {
		s.AddFlow(FlowSpec{Src: int32(i), Dst: int32((i + half) % n), Bytes: 96 << 10, Start: Time(i) * 3 * Microsecond})
	}
	for i := 1; i <= 6; i++ {
		s.AddFlow(FlowSpec{Src: int32(i), Dst: 0, Bytes: 64 << 10, Start: 5 * Microsecond})
	}
	return s
}

func withLB(cfg Config, lb LoadBalance) Config {
	cfg.LB = lb
	return cfg
}

// pinnedLoad selects the workload of a pinned case.
type pinnedLoad uint8

const (
	perm        pinnedLoad = iota // permSim, run to 50 ms
	mixed                         // mixedSim, run to 80 ms
	mixedFailed                   // mixedSim with links failed, run to 80 ms
)

// eventCoreCases pins fixed-seed runs. The mixed rows are the five workloads on
// which the sharded engine used to be compared with the serial one; their
// literals are the serial engine's, recorded at the last commit that had
// both (PR 17), and they are the only simulator-level pins of LetFlow under
// DCTCP and of failed links.
var eventCoreCases = []struct {
	name           string
	cfg            Config
	load           pinnedLoad
	events         int64   // Eng.Executed() after the run
	queueHighWater int     // Eng.QueueHighWater(), likewise
	done           int     // flows completed
	retx           int64   // FlowResult.Retx summed over flows: moves with any window-law slip
	allocCeiling   float64 // 0: the run is too short to measure
	digest         uint64  // flowDigest after the same run (TestFlowResultsPinned)
}{
	{"tcp", TCPDefaults(TransportTCP), perm, 443076, 1316, 200, 453, 0.01, 0x4d8a58bb1bb33892},
	{"dctcp", TCPDefaults(TransportDCTCP), perm, 493167, 1433, 200, 5879, 0.01, 0xc011ea92e1c32ee1},
	{"mptcp", TCPDefaults(TransportMPTCP), perm, 473959, 3496, 200, 2294, 0.01, 0x8bb9134d2e067785},
	{"ndp", NDPDefaults(), perm, 123421, 990, 200, 2932, 0.02, 0xa6a87bbb54c1086e},
	{"mixed-ndp-fatpaths", NDPDefaults(), mixed, 20034, 398, 106, 462, 0, 0xb1b5406a3832d331},
	{"mixed-tcp-fatpaths", TCPDefaults(TransportTCP), mixed, 76378, 613, 106, 152, 0, 0x748ac3a178dba81f},
	{"mixed-dctcp-letflow", withLB(TCPDefaults(TransportDCTCP), LBLetFlow), mixed, 66755, 526, 106, 798, 0, 0x60d4bc5722051684},
	{"mixed-mptcp", TCPDefaults(TransportMPTCP), mixed, 82966, 1308, 106, 209, 0, 0xe390d9a9a29581c3},
	{"mixed-ndp-failed-links", NDPDefaults(), mixedFailed, 23514, 351, 98, 1778, 0, 0x8a11da6e8547c835},
}

// pinnedSim builds case i of eventCoreCases and returns it with its
// horizon.
func pinnedSim(t *testing.T, i int) (*Sim, Time) {
	t.Helper()
	c := eventCoreCases[i]
	if c.load != perm {
		return mixedSim(t, c.cfg, c.load == mixedFailed), 80 * Millisecond
	}
	return permSim(t, c.cfg), 50 * Millisecond
}

// runPinned runs case i of eventCoreCases to its horizon.
func runPinned(t *testing.T, i int) (*Sim, []FlowResult) {
	t.Helper()
	s, horizon := pinnedSim(t, i)
	return s, s.Run(horizon)
}

// TestEventCountPinned holds the simulated model fixed while its cost
// changes: a fixed-seed run of each transport must execute exactly the
// events, and reach exactly the queue depth, it did when tx-done became a
// reserved deadline. The literals were re-pinned twice, each time with
// every retransmission sum and every TestFlowResultsPinned digest
// unchanged:
//   - when the live timers went in, on the TCP family only: a superseded
//     RTO no longer costs an entry and a pop (tcp 684374 -> 621736 events,
//     dctcp 727144 -> 674665, mptcp 692516 -> 638205; high-water 17182 /
//     16735 / 19996 before);
//   - when a link stopped queueing a tx-done for a transmission that no
//     packet waits behind: 29–40 % fewer events in every row (tcp 621736,
//     dctcp 674665, mptcp 638205, ndp 158906, then the mixed rows 29484,
//     120720, 110406, 122254, 35306 before), and a high-water 4–29 % higher
//     (1169, 1302, 3373, 765, 336, 553, 494, 1262, 297 before), since a
//     delivery is now queued when its transmission starts, not when it
//     ends.
func TestEventCountPinned(t *testing.T) {
	for i, c := range eventCoreCases {
		t.Run(c.name, func(t *testing.T) {
			s, res := runPinned(t, i)
			done := 0
			var retx int64
			for _, r := range res {
				retx += r.Retx
				if r.Done {
					done++
				}
			}
			if done != c.done {
				t.Errorf("%d of %d flows completed, pinned %d", done, len(res), c.done)
			}
			if retx != c.retx {
				t.Errorf("%d retransmissions, pinned %d", retx, c.retx)
			}
			if got := s.Eng.Executed(); got != c.events {
				t.Errorf("executed %d events, pinned %d", got, c.events)
			}
			if got := s.Eng.QueueHighWater(); got != c.queueHighWater {
				t.Errorf("queue high-water %d, pinned %d", got, c.queueHighWater)
			}
		})
	}
}

// flowDigest folds everything a flow reports — FlowResult's Done, Finish,
// Retx and TrimsSeen, plus the sender's RTO firings and flowlet reroutes —
// into one FNV-1a value, flow by flow in id order.
func flowDigest(s *Sim, res []FlowResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for i, r := range res {
		done := int64(0)
		if r.Done {
			done = 1
		}
		put(done)
		put(int64(r.Finish))
		put(r.Retx)
		put(r.TrimsSeen)
		put(s.flows[i].timeouts)
		put(s.flows[i].reroutes)
	}
	return h.Sum64()
}

// TestFlowResultsPinned is the proof obligation of any change to how events
// are queued or timers armed: the event count may move (TestEventCountPinned
// is re-pinned when it does), but no flow may finish at another time, or
// retransmit, time out or re-route another number of times. The literals
// were recorded with one heap entry and one closure per timer arm, before
// the calendar queue and the live timers.
func TestFlowResultsPinned(t *testing.T) {
	for i, c := range eventCoreCases {
		s, res := runPinned(t, i)
		if got := flowDigest(s, res); got != c.digest {
			t.Errorf("%s: flow-result digest %#x, pinned %#x", c.name, got, c.digest)
		}
	}
}

// stepPinned steps pinned workload i through its horizon, finely through
// the first 2 ms, where every workload is busiest, then coarsely, calling
// pause (when non-nil) at every stop. It returns the paused simulation and
// its horizon.
func stepPinned(t *testing.T, i int, pause func(s *Sim)) (*Sim, Time) {
	t.Helper()
	s, horizon := pinnedSim(t, i)
	for until := Time(0); until < horizon; {
		if until < 2*Millisecond {
			until += 5 * Microsecond
		} else {
			until += 500 * Microsecond
		}
		s.Eng.Run(until)
		if pause != nil {
			pause(s)
		}
	}
	return s, horizon
}

// TestInFlightInvariants steps each pinned workload through its horizon
// (stepPinned) and, between steps, checks what the reserved tx-done
// deadline must keep true:
//   - a link's tx-done entry is queued exactly while a packet waits in its
//     queues: no waiting packet is stranded, no entry is queued for nothing;
//   - no queue holds more packets than its capacity;
//   - the deliveries queued on one link are a serialization apart at least
//     (the wire never carries two packets at once), and the last is due one
//     link delay after the reserved end of serialization while the
//     transmitter is busy, never later;
//   - every packet is free in the arena, waiting for injection, or in
//     flight, and every packet in flight sits in a link queue or a queued
//     delivery.
//
// It pins no result, so it runs on its own under a changed model;
// TestSteppedFlowResultsPinned holds the stepped runs to their digests.
func TestInFlightInvariants(t *testing.T) {
	for i, c := range eventCoreCases {
		t.Run(c.name, func(t *testing.T) {
			loaded := 0
			stepPinned(t, i, func(s *Sim) {
				checkInFlight(t, s)
				if s.Eng.inflight > 0 {
					loaded++
				}
			})
			if loaded < 50 {
				t.Fatalf("only %d pauses found packets in flight", loaded)
			}
		})
	}
}

// TestSteppedFlowResultsPinned holds that pausing does not perturb a run:
// each pinned workload, stepped as TestInFlightInvariants steps it, ends
// with the flow digest TestFlowResultsPinned pins.
func TestSteppedFlowResultsPinned(t *testing.T) {
	for i, c := range eventCoreCases {
		s, horizon := stepPinned(t, i, nil)
		if got := flowDigest(s, s.Run(horizon)); got != c.digest {
			t.Errorf("%s: stepped run: flow-result digest %#x, pinned %#x", c.name, got, c.digest)
		}
	}
}

// checkInFlight asserts TestInFlightInvariants' invariants on a paused
// simulation.
func checkInFlight(t *testing.T, s *Sim) {
	t.Helper()
	e := s.Eng
	type delivery struct {
		at  Time
		pkt *Packet
	}
	deliveries := make([][]delivery, len(s.Net.links))
	injecting := 0
	visit := func(at Time, pay eventPayload) {
		switch pay.kind {
		case evDeliver:
			deliveries[pay.ref] = append(deliveries[pay.ref], delivery{at, e.pkt(pay.pkt)})
		case evInject:
			injecting++
		}
	}
	w := &e.queue.near
	for b := range w.head {
		if w.occ[b>>6]>>(b&63)&1 != 0 {
			for c := w.head[b]; c >= 0; c = w.node[c].next {
				visit(w.node[c].at, w.node[c].pay)
			}
		}
	}
	for _, en := range e.queue.far.ent {
		visit(en.at, en.pay)
	}
	var held int64
	for id := range s.Net.links {
		l := &s.Net.links[id]
		waiting := l.q.len() + l.pq.len()
		if l.q.n > l.q.limit || l.pq.n > l.pq.limit {
			t.Fatalf("t=%d link %d: queues hold %d / %d packets, capacities %d / %d", e.now, id, l.q.len(), l.pq.len(), l.q.limit, l.pq.limit)
		}
		if l.txQueued != (waiting > 0) {
			t.Fatalf("t=%d link %d: tx-done queued=%v with %d packets waiting", e.now, id, l.txQueued, waiting)
		}
		d := deliveries[id]
		sort.Slice(d, func(a, b int) bool { return d[a].at < d[b].at })
		for k := 1; k < len(d); k++ {
			if gap := d[k].at - d[k-1].at; gap < serialization(d[k].pkt.Bytes) {
				t.Fatalf("t=%d link %d: deliveries at %d and %d overlap on the wire (%d B)", e.now, id, d[k-1].at, d[k].at, d[k].pkt.Bytes)
			}
		}
		last := Time(-1)
		if len(d) > 0 {
			last = d[len(d)-1].at
		}
		if busy := e.before(l.txEnd, l.txKey); last > l.txEnd+linkDelay || busy && last != l.txEnd+linkDelay {
			t.Fatalf("t=%d link %d: last delivery due at %d, serialization reserved until %d (busy %v), delay %d", e.now, id, last, l.txEnd, busy, linkDelay)
		}
		held += int64(waiting + len(d))
	}
	if held != e.inflight {
		t.Fatalf("t=%d: %d packets in flight, but %d in link queues and queued deliveries", e.now, e.inflight, held)
	}
	if n := len(e.pfree) + injecting + int(e.inflight); n != len(e.pkts)*packetChunk {
		t.Fatalf("t=%d: %d free + %d injecting + %d in flight packets, but the arena holds %d chunks of %d", e.now, len(e.pfree), injecting, e.inflight, len(e.pkts), packetChunk)
	}
}

// TestAllocsPerEventCeiling bounds the event loop's steady-state heap
// allocations: after a warm-up that sizes queues, rings and the packet
// arena nothing on the event path allocates — timers re-arm in place and
// pulls are typed events — so what remains is late growth: a ring, the
// wheel's node array or the arena growing, NDP's retransmit queues (it was ≈0.08 with a closure per
// RTO re-arm and paced pull). Not parallel, so no other test's allocations
// land in the delta.
func TestAllocsPerEventCeiling(t *testing.T) {
	for _, c := range eventCoreCases {
		if c.allocCeiling == 0 {
			continue
		}
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

// BenchmarkEventQueue is the classic hold model: a queue of n events, each
// operation pops the earliest and pushes one at now + U(0, span). It runs
// the event queue with its tick fitted to span (every push lands in the
// wheel) beside a lone 4-ary heap, so the depth at which the calendar
// queue overtakes the heap is a committed number.
func BenchmarkEventQueue(b *testing.B) {
	const span = 2048
	pay := eventPayload{kind: evDeliver}
	for _, n := range []int{64, 512, 4096} {
		b.Run("wheel/n="+strconv.Itoa(n), func(b *testing.B) {
			rng := randNew(1)
			var h eventHeap
			h.near.shift = wheelShift(span)
			for i := 0; i < n; i++ {
				h.push(Time(rng.Intn(span)), uint64(i), pay)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, _, _, _ := h.popUntil(maxTime)
				h.push(at+Time(rng.Intn(span)), uint64(n+i), pay)
			}
		})
		b.Run("heap/n="+strconv.Itoa(n), func(b *testing.B) {
			rng := randNew(1)
			var h quadHeap
			for i := 0; i < n; i++ {
				h.push(Time(rng.Intn(span)), uint64(i), pay)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, _, _ := h.pop()
				h.push(at+Time(rng.Intn(span)), uint64(n+i), pay)
			}
		})
	}
}
