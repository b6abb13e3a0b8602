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

// maxTime is the empty-heap sentinel.
const maxTime = Time(1<<63 - 1)

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// eventKind discriminates the event payload. Everything the steady state
// schedules carries its operands inline instead of in a closure — every
// packet transmission schedules two events per hop, every ACK re-arms a
// timer, every NDP arrival paces a pull — so the event loop allocates
// nothing once queues and arenas have reached their size.
type eventKind uint8

const (
	evTimer   eventKind = iota // an entry of timer tm popped (shard.go)
	evTxDone                   // link finished serializing pkt; start next, then deliver
	evDeliver                  // pkt arrives at the far end of link
	evInject                   // pkt enters the network at link, its source host's uplink
)

// Canonical event keys. Same-time events execute in ascending key order,
// and keys are constructed so that the total (at, key) order is a property
// of the simulated system alone — never of how partitions were grouped
// into shards:
//
//   - Partition-local events (timers, tx-done) fold the owning partition id
//     and that partition's private push counter. Within one partition,
//     scheduling order is execution order, exactly as in the serial engine.
//   - Link deliveries fold the link's globally stable id and a per-link
//     transmit sequence. A delivery gets this key whether or not it crosses
//     a shard boundary, so co-locating transmitter and receiver (S=1)
//     yields the same order as separating them (S=8).
//
// The delivery class sorts after the local class at equal times, which is
// well-defined either way; what matters is that the rule is fixed.
func localKey(part int32, seq uint32) uint64 {
	return uint64(uint32(part))<<32 | uint64(seq)
}

func deliverKey(linkID int32, seq uint32) uint64 {
	return 1<<63 | uint64(uint32(linkID))<<32 | uint64(seq)
}

// Engine is a deterministic discrete-event scheduler, optionally sharded:
// partitions (one per router, hosts riding with their router) are split
// into contiguous blocks, each drained by its own worker goroutine under
// conservative synchronization — a window of lookahead length is safe to
// drain independently because every cross-partition event (a link
// delivery) is scheduled at least one link delay ahead. Results are
// byte-identical at every shard count; see the canonical-key comment.
type Engine struct {
	shards    []*Shard
	partShard []int32 // partition id -> owning shard
	lookahead Time

	// now is the engine-wide clock: live during serial runs, and updated
	// from the shard clocks when a parallel run returns. Engine.Now is only
	// meaningful between runs — code executing on a shard uses Shard.Now.
	now Time

	// windows / stalls summarize parallel-run synchronization (flushed to
	// the obs layer by Sim.Run). tracer is nil except for the single
	// simulation that acquired the run's tracer; obs.Tracer is internally
	// locked, so shard workers may record concurrently.
	windows int64
	tracer  *obs.Tracer
}

// NewShardedEngine returns an engine over parts partitions drained by
// shards workers. lookahead is the conservative synchronization window —
// the minimum delay of any cross-partition event — and must be positive
// when shards > 1. nearSpan is how far ahead the bulk of events is
// scheduled (a packet's serialization or link delay); it sizes the event
// queues' calendar tick and affects cost only, never order. Shard s owns
// the contiguous partition block {p : p*shards/parts == s}.
func NewShardedEngine(parts, shards int, lookahead, nearSpan Time) *Engine {
	if parts < 1 {
		parts = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > parts {
		shards = parts
	}
	if shards > 1 && lookahead <= 0 {
		panic("netsim: sharded engine requires a positive lookahead (the minimum link delay)")
	}
	e := &Engine{
		partShard: make([]int32, parts),
		lookahead: lookahead,
		shards:    make([]*Shard, shards),
	}
	for p := 0; p < parts; p++ {
		e.partShard[p] = int32(p * shards / parts)
	}
	for s := range e.shards {
		sh := &Shard{eng: e, id: int32(s), partLo: -1}
		sh.heap.near.shift = wheelShift(nearSpan)
		if shards > 1 {
			sh.outbox = make([][]outEvent, shards)
		}
		e.shards[s] = sh
	}
	for p := 0; p < parts; p++ {
		sh := e.shards[e.partShard[p]]
		if sh.partLo < 0 {
			sh.partLo = int32(p)
		}
		sh.seq = append(sh.seq, 0)
	}
	return e
}

// AtPart schedules fn at absolute time t on the given partition. It must
// not be called while a parallel run is draining (schedule through the
// executing *Shard there); before Run, and on serial engines, it is the
// ordinary front door.
func (e *Engine) AtPart(t Time, part int32, fn func(*Shard)) {
	e.shards[e.partShard[part]].at(part, t, fn)
}

// Run executes events until the queues empty or the horizon passes. It
// returns the number of events executed.
func (e *Engine) Run(until Time) int {
	if len(e.shards) == 1 {
		return e.runSerial(until)
	}
	return e.runParallel(until)
}

// runSerial is the single-shard fast path: no windows, no barriers, drain
// straight to the horizon.
func (e *Engine) runSerial(until Time) int {
	sh := e.shards[0]
	n := sh.run(until)
	if sh.now < until && sh.heap.len() == 0 {
		sh.now = until
	}
	e.now = sh.now
	return int(n)
}

// eventTraceName maps event kinds onto trace slice names.
var eventTraceName = [...]string{evTimer: "timer", evTxDone: "tx-done", evDeliver: "deliver", evInject: "inject"}

// traceEvent records one executed event in the engine's trace window, plus
// a periodic event-queue-depth counter track. Packet events land on a tid
// derived from the packet's destination so per-flow activity separates
// into rows in the viewer.
func (sh *Shard) traceEvent(pay eventPayload) {
	ts := int64(sh.now)
	tr := sh.eng.tracer
	if !tr.Active(ts) {
		return
	}
	tid := 0
	name := eventTraceName[pay.kind]
	if pay.pkt != nil {
		tid = 1 + int(pay.pkt.DstHost)%62
		name = pktTraceName(name, pay.pkt)
	}
	tr.Instant("event", name, ts, tid)
	if sh.executed%64 == 0 {
		tr.CounterEvent("event_queue_depth", ts, int64(sh.heap.len()))
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

// SetTracer attaches an acquired tracer to the engine's event loop.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// Executed returns the number of events executed so far, summed over
// shards.
func (e *Engine) Executed() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.executed
	}
	return n
}

// QueueHighWater returns the largest event-queue depth any shard reached.
func (e *Engine) QueueHighWater() int {
	hw := 0
	for _, sh := range e.shards {
		if sh.queueHW > hw {
			hw = sh.queueHW
		}
	}
	return hw
}
