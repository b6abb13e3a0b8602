package netsim

// Shard is one worker of the sharded event loop: it owns a contiguous
// block of partitions (a partition is one router plus its attached hosts),
// an event heap holding exactly the events that execute on those
// partitions, a packet arena, and plain-field tallies. Within a
// synchronization window a shard drains its heap with no locks and no
// atomics — every mutable structure it touches (flow state of hosts it
// owns, transmit queues of links it owns, its arena) is reached only from
// events keyed to its partitions. Event callbacks receive the executing
// *Shard, which is the only legal source of Now() and of new events while
// a simulation runs.
type Shard struct {
	eng *Engine
	id  int32
	now Time

	heap eventHeap

	// Owned partitions form the contiguous range [partLo, partLo+len(seq));
	// seq holds the per-partition push counters that make local event keys
	// canonical (see engine.go).
	partLo int32
	seq    []uint32

	// outbox[d] collects cross-shard deliveries destined for shard d during
	// a window; the coordinator merges them at the barrier.
	outbox [][]outEvent

	// Packet arena: a free list fed by chunked allocations. Packets are
	// allocated on the shard that sends them and recycled on the shard that
	// retires them; migrating between free lists is harmless.
	pfree []*Packet

	// Engine tallies.
	executed int64
	queueHW  int
	windows  int64 // synchronization windows participated in
	stalls   int64 // windows in which this shard had no executable event

	// Network tallies (the per-shard split of the old Network fields).
	inflight   int64
	inflightHW int64
	hopHist    [maxHopBucket + 1]int64

	// Worker channels (parallel runs only).
	cmd  chan Time
	done chan struct{}
}

// outEvent is one cross-shard event awaiting the window barrier.
type outEvent struct {
	at  Time
	key uint64
	pay eventPayload
}

// Now returns the shard's current simulation time. During a parallel
// window shards advance independently within the lookahead bound, so this
// is the only meaningful clock for code running on the shard.
func (sh *Shard) Now() Time { return sh.now }

// push queues an event with an explicit canonical key on this shard.
func (sh *Shard) push(t Time, key uint64, pay eventPayload) {
	if t < sh.now {
		t = sh.now
	}
	sh.heap.push(t, key, pay)
	if n := sh.heap.len(); n > sh.queueHW {
		sh.queueHW = n
	}
}

// pushLocal queues a partition-local event: the key folds the owning
// partition and that partition's push counter, so it is identical at every
// shard count.
func (sh *Shard) pushLocal(t Time, part int32, pay eventPayload) {
	i := part - sh.partLo
	sh.seq[i]++
	sh.push(t, localKey(part, sh.seq[i]), pay)
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
	fire      func(*Shard)
}

// arm sets tm's deadline to absolute time t (no earlier than now) on
// partition part, which this shard must own — hosts schedule on their own
// router's partition — replacing any earlier deadline. Every arm draws the
// partition's next sequence number, queued or not, so no other event's key
// depends on how often an entry is pushed.
func (sh *Shard) arm(tm *timer, part int32, t Time) {
	if t < sh.now {
		t = sh.now
	}
	i := part - sh.partLo
	sh.seq[i]++
	tm.at, tm.key = t, localKey(part, sh.seq[i])
	if !tm.queued || t < tm.queuedAt {
		sh.queueTimer(tm)
	}
}

// at schedules fn once at absolute time t on partition part: a timer
// nobody re-arms.
func (sh *Shard) at(part int32, t Time, fn func(*Shard)) {
	sh.arm(&timer{fire: fn}, part, t)
}

// queueTimer pushes the entry for tm's live deadline and makes it the one
// that counts.
func (sh *Shard) queueTimer(tm *timer) {
	tm.queued, tm.queuedAt, tm.queuedKey = true, tm.at, tm.key
	sh.push(tm.at, tm.key, eventPayload{kind: evTimer, tm: tm})
}

// popTimer handles a timer entry popped at (at, key).
func (sh *Shard) popTimer(tm *timer, at Time, key uint64) {
	switch {
	case !tm.queued || at != tm.queuedAt || key != tm.queuedKey:
		// Superseded: an arm with an earlier deadline queued its own entry.
	case at != tm.at || key != tm.key:
		sh.queueTimer(tm) // the deadline moved later since this was queued
	default:
		tm.queued = false
		tm.fire(sh)
	}
}

// afterTxDone schedules the end of a packet's serialization on a link the
// shard owns (the transmit side of l lives on partition l.txPart).
func (sh *Shard) afterTxDone(d Time, l *link, p *Packet) {
	sh.pushLocal(sh.now+d, l.txPart, eventPayload{kind: evTxDone, link: l, pkt: p})
}

// afterDeliver schedules a packet's arrival at the far end of a link. The
// arrival executes on the receiving partition, which may live on another
// shard: link delay >= the engine lookahead, so the event always lands at
// or beyond the current window's end and can safely cross at the barrier.
// Delivery keys fold the (globally stable) link id and a per-link sequence
// instead of a partition counter, so the merge order at the barrier — and
// hence execution order — is identical at every shard count, including
// when transmitter and receiver share a shard.
func (sh *Shard) afterDeliver(l *link, p *Packet) {
	t := sh.now + l.delay
	l.deliverSeq++
	key := deliverKey(l.id, l.deliverSeq)
	pay := eventPayload{kind: evDeliver, link: l, pkt: p}
	dst := sh.eng.partShard[l.rxPart]
	if dst == sh.id {
		sh.push(t, key, pay)
		return
	}
	sh.outbox[dst] = append(sh.outbox[dst], outEvent{at: t, key: key, pay: pay})
}

// run executes the shard's events in (at, key) order up to and including
// time limit, and returns how many it executed.
func (sh *Shard) run(limit Time) int64 {
	n0 := sh.executed
	for {
		at, key, pay, ok := sh.heap.popUntil(limit)
		if !ok {
			return sh.executed - n0
		}
		sh.now = at
		sh.executed++
		if sh.eng.tracer != nil {
			sh.traceEvent(pay)
		}
		switch pay.kind {
		case evTimer:
			sh.popTimer(pay.tm, at, key)
		case evTxDone:
			l := pay.link
			l.busy = false
			l.kick(sh)
			sh.afterDeliver(l, pay.pkt)
		case evDeliver:
			pay.link.net.deliver(sh, pay.link, pay.pkt)
		case evInject:
			pay.link.net.sendFromHost(sh, pay.pkt)
		}
	}
}

// newPacket takes a Packet from the shard's arena. Callers overwrite every
// field (allocation sites assign a full composite literal), so no zeroing
// happens here.
func (sh *Shard) newPacket() *Packet {
	if n := len(sh.pfree); n > 0 {
		p := sh.pfree[n-1]
		sh.pfree = sh.pfree[:n-1]
		return p
	}
	chunk := make([]Packet, packetChunk)
	for i := 1; i < len(chunk); i++ {
		sh.pfree = append(sh.pfree, &chunk[i])
	}
	return &chunk[0]
}

// freePacket recycles a dead packet into this shard's arena. The struct is
// zeroed so a stale field read after free fails loudly rather than
// plausibly.
func (sh *Shard) freePacket(p *Packet) {
	*p = Packet{}
	sh.pfree = append(sh.pfree, p)
}

// packetChunk is the arena growth quantum.
const packetChunk = 256
