// Package netsim is the packet-level discrete-event network simulator used
// for the paper's §VII evaluation — an htsim/OMNeT-style substrate with
// full-duplex links, output-queued routers (tail-drop, ECN marking, or
// NDP-style payload trimming with priority queues), per-layer
// destination-based forwarding, ECMP hashing, flowlet switching, and two
// transport families: the purified NDP-style receiver-driven transport of
// §III-C, and one Reno sender under the TCP, DCTCP and MPTCP window laws.
package netsim

import "repro/internal/obs"

// Time is simulation time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// eventKind discriminates the event payload. Everything the steady state
// schedules carries its operands inline instead of in a closure — every
// packet transmission schedules a delivery, every ACK re-arms a timer,
// every NDP arrival paces a pull — so the event loop allocates nothing once
// queues and arenas have reached their size.
type eventKind uint8

const (
	evTimer   eventKind = iota // an entry of timer tm popped
	evTxDone                   // link's reserved end of serialization, queued because a packet waits: start it
	evDeliver                  // pkt arrives at the far end of link
	evInject                   // pkt enters the network at link, its source host's uplink
)

// Canonical event keys. Same-time events execute in ascending key order,
// and keys are built from the simulated system — a partition is one router
// plus its attached hosts — never from the order in which the queue
// happened to be filled:
//
//   - Partition-local events (timers, tx-done, paced pulls) fold the owning
//     partition id and that partition's private push counter. Within one
//     partition, scheduling order is execution order; across partitions,
//     the lower id goes first whichever was pushed first. A timer arm and a
//     transmission draw their key when they are made, whether or not an
//     entry is ever queued under it (timer, link.transmit).
//   - Link deliveries fold the link's construction-order id and a per-link
//     transmit sequence, and sort after the local class at equal times.
//
// One global push counter would give a total order as well, but then
// same-time events at different routers would run in whatever order
// earlier events happened to push them; here the order between partitions
// is fixed by id, so it can be stated without replaying the run and does
// not move when an unrelated push is added or removed. It is also the order
// every golden, TestEventCountPinned and TestFlowResultsPinned record: the
// rule is part of the model.
func localKey(part int32, seq uint32) uint64 {
	return uint64(uint32(part))<<32 | uint64(seq)
}

func deliverKey(linkID int32, seq uint32) uint64 {
	return 1<<63 | uint64(uint32(linkID))<<32 | uint64(seq)
}

// Engine is the deterministic discrete-event scheduler of one simulation:
// the clock, the event queue, the per-partition sequence counters behind
// the canonical keys, the timers and packets that queued events name by id,
// and the run's plain-field tallies. It is single-threaded — a sweep runs
// many engines side by side, one per cell, and nothing here is shared
// between them. Event callbacks receive the executing *Engine.
type Engine struct {
	now   Time
	key   uint64 // canonical key of the executing event
	queue eventHeap

	// seq[p] is partition p's push counter (see localKey).
	seq []uint32

	// net is the simulated network: an event's link id indexes net.links.
	net *Network
	// timers[id] is the timer of id; an id is given on a timer's first arm,
	// and id 0 is reserved for a timer that was never armed.
	timers []*timer

	// Packet arena: fixed chunks of packetChunk packets, a packet's handle
	// being chunk<<packetChunkBits | index, and a LIFO free list of
	// handles. Chunks never move, so a *Packet stays valid across
	// newPacket while its handle is live, and nothing the event loop
	// writes per packet holds a pointer. The arena belongs to the engine,
	// not the process, because cells of a sweep simulate
	// concurrently: a shared pool would serialize them on its locks and
	// trade packet structs between cores (internal/analysis's
	// TestModuleClean holds this package to importing no sync at all).
	pkts  []*[packetChunk]Packet
	pfree []int32

	executed int64
	queueHW  int

	// Network tallies, flushed to the obs layer by Sim.Run.
	inflight   int64
	inflightHW int64
	hopHist    [maxHopBucket + 1]int64

	// tracer is nil except for the one simulation that acquired the run's
	// tracer.
	tracer *obs.Tracer
}

// NewEngine returns an engine over parts partitions. nearSpan is how far
// ahead the bulk of events is scheduled (a packet's serialization plus its
// link delay: a delivery is queued when its transmission starts); it sizes the event queue's calendar tick and affects cost only,
// never order.
func NewEngine(parts int, nearSpan Time) *Engine {
	e := &Engine{seq: make([]uint32, parts), timers: []*timer{nil}}
	e.queue.near.shift = wheelShift(nearSpan)
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() int64 { return e.executed }

// QueueHighWater returns the largest event-queue depth reached.
func (e *Engine) QueueHighWater() int { return e.queueHW }

// SetTracer attaches an acquired tracer to the engine's event loop.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// before reports whether the executing event precedes (at, key) in queue
// order, i.e. whether an event queued under (at, key) would still be
// waiting to run.
func (e *Engine) before(at Time, key uint64) bool { return earlier(e.now, e.key, at, key) }

// push queues an event with an explicit canonical key.
func (e *Engine) push(t Time, key uint64, pay eventPayload) {
	if t < e.now {
		t = e.now
	}
	e.queue.push(t, key, pay)
	if n := e.queue.len(); n > e.queueHW {
		e.queueHW = n
	}
}

// nextKey draws partition part's next canonical key.
func (e *Engine) nextKey(part int32) uint64 {
	e.seq[part]++
	return localKey(part, e.seq[part])
}

// pushLocal queues a partition-local event under the partition's next key.
func (e *Engine) pushLocal(t Time, part int32, pay eventPayload) {
	e.push(t, e.nextKey(part), pay)
}

// timer is a re-armable deadline with at most one live firing: a subflow's
// retransmission timeout, an NDP sender's keepalive. Re-arming — every ACK
// does it — moves the deadline and queues nothing while an entry that pops
// no later is already queued, so a timer costs one queue entry, not one per
// arm, and no allocation after fire is set.
//
// (at, key) is the live deadline; (queuedAt, queuedKey) is the one queue
// entry that counts, valid while queued. An entry that pops with any other
// (at, key) was superseded by an earlier deadline and is dropped; the one
// that counts fires if it is the live deadline and otherwise re-queues
// itself at it. Either way fire runs at exactly the (at, key) the last arm
// drew — where an entry pushed by that arm would have popped.
type timer struct {
	at        Time
	key       uint64
	queuedAt  Time
	queuedKey uint64
	queued    bool
	id        int32 // index in Engine.timers, 0 until the first arm
	fire      func(*Engine)
}

// arm sets tm's deadline to absolute time t (no earlier than now) on
// partition part — hosts schedule on their own router's partition —
// replacing any earlier deadline. Every arm draws the partition's next
// sequence number, queued or not, so no other event's key depends on how
// often an entry is pushed.
func (e *Engine) arm(tm *timer, part int32, t Time) {
	if t < e.now {
		t = e.now
	}
	tm.at, tm.key = t, e.nextKey(part)
	if tm.id == 0 {
		tm.id = int32(len(e.timers))
		e.timers = append(e.timers, tm)
	}
	if !tm.queued || t < tm.queuedAt {
		e.queueTimer(tm)
	}
}

// AtPart schedules fn once at absolute time t on partition part: a timer
// nobody re-arms.
func (e *Engine) AtPart(t Time, part int32, fn func(*Engine)) {
	e.arm(&timer{fire: fn}, part, t)
}

// queueTimer pushes the entry for tm's live deadline and makes it the one
// that counts.
func (e *Engine) queueTimer(tm *timer) {
	tm.queued, tm.queuedAt, tm.queuedKey = true, tm.at, tm.key
	e.push(tm.at, tm.key, eventPayload{kind: evTimer, ref: tm.id})
}

// popTimer handles a timer entry popped at (at, key).
func (e *Engine) popTimer(tm *timer, at Time, key uint64) {
	switch {
	case !tm.queued || at != tm.queuedAt || key != tm.queuedKey:
		// Superseded: an arm with an earlier deadline queued its own entry.
	case at != tm.at || key != tm.key:
		e.queueTimer(tm) // the deadline moved later since this was queued
	default:
		tm.queued = false
		tm.fire(e)
	}
}

// Run executes events in (at, key) order until the queue empties or the
// horizon passes — events at the horizon still run — and returns how many
// it executed. A drained queue leaves the clock at the horizon.
func (e *Engine) Run(until Time) int {
	n0 := e.executed
	for {
		at, key, pay, ok := e.queue.popUntil(until)
		if !ok {
			break
		}
		e.now, e.key = at, key
		e.executed++
		if e.tracer != nil {
			e.traceEvent(pay)
		}
		switch pay.kind {
		case evTimer:
			e.popTimer(e.timers[pay.ref], at, key)
		case evTxDone:
			e.net.links[pay.ref].txDone(e)
		case evDeliver:
			e.net.deliver(e, &e.net.links[pay.ref], pay.pkt, e.pkt(pay.pkt))
		case evInject:
			e.net.sendFromHost(e, pay.pkt)
		}
	}
	if e.now < until && e.queue.len() == 0 {
		e.now = until
	}
	return int(e.executed - n0)
}

// The arena grows by chunks of packetChunk packets; a handle's low
// packetChunkBits bits index its chunk.
const (
	packetChunkBits = 8
	packetChunk     = 1 << packetChunkBits
)

// pkt returns the packet of handle h.
func (e *Engine) pkt(h int32) *Packet {
	return &e.pkts[h>>packetChunkBits][h&(packetChunk-1)]
}

// newPacket stores p in the arena and returns its handle.
func (e *Engine) newPacket(p Packet) int32 {
	if len(e.pfree) == 0 {
		e.growArena()
	}
	n := len(e.pfree) - 1
	h := e.pfree[n]
	e.pfree = e.pfree[:n]
	*e.pkt(h) = p
	return h
}

// growArena adds a chunk, its handles freed so they are taken in order.
func (e *Engine) growArena() {
	c := int32(len(e.pkts)) << packetChunkBits
	e.pkts = append(e.pkts, new([packetChunk]Packet))
	for i := int32(packetChunk - 1); i >= 0; i-- {
		e.pfree = append(e.pfree, c|i)
	}
}

// freePacket recycles a dead packet into the arena. The struct is zeroed
// so a stale field read after free fails loudly rather than plausibly.
func (e *Engine) freePacket(h int32) {
	*e.pkt(h) = Packet{}
	e.pfree = append(e.pfree, h)
}

// retire frees a packet that was in flight.
func (e *Engine) retire(h int32) {
	e.inflight--
	e.freePacket(h)
}

// eventTraceName maps event kinds onto trace slice names.
var eventTraceName = [...]string{evTimer: "timer", evTxDone: "tx-done", evDeliver: "deliver", evInject: "inject"}

// traceEvent records one executed event in the engine's trace window, plus
// a periodic event-queue-depth counter track. Packet events land on a tid
// derived from the packet's destination so per-flow activity separates
// into rows in the viewer. A tx-done event carries no packet, so it lands on
// tid 0 as a bare "tx-done", and it is queued, hence traced, only when a
// packet waits behind the transmission.
func (e *Engine) traceEvent(pay eventPayload) {
	ts := int64(e.now)
	tr := e.tracer
	if !tr.Active(ts) {
		return
	}
	tid := 0
	name := eventTraceName[pay.kind]
	if pay.kind == evDeliver || pay.kind == evInject {
		p := e.pkt(pay.pkt)
		tid = 1 + int(p.DstHost)%62
		name = pktTraceName(name, p)
	}
	tr.Instant("event", name, ts, tid)
	if e.executed%64 == 0 {
		tr.CounterEvent("event_queue_depth", ts, int64(e.queue.len()))
	}
}

// pktTraceName renders a packet event's slice name.
func pktTraceName(base string, p *Packet) string {
	switch p.Kind {
	case KindAck:
		return base + ":ack"
	case KindPull:
		return base + ":pull"
	default:
		if p.Trimmed {
			return base + ":trim"
		}
		return base + ":data"
	}
}
