package netsim

import (
	"fmt"
	"math/bits"

	"repro/internal/routing"
	"repro/internal/topo"
)

// PktKind distinguishes packet roles.
type PktKind uint8

// Packet kinds.
const (
	KindData PktKind = iota
	KindAck
	KindPull // NDP receiver-driven credit
)

// HeaderBytes is the wire size of a packet header / control packet.
const HeaderBytes = 64

// Packet is the unit of transmission.
type Packet struct {
	FlowID  int32
	SrcHost int32
	DstHost int32
	Seq     int32
	Bytes   int32 // current wire size (payload trimmed packets shrink)
	Kind    PktKind
	Layer   int8   // >= 0: layered forwarding; -1: ECMP over minimal paths
	Salt    uint32 // per-flowlet salt for ECMP/LetFlow hashing
	Trimmed bool   // payload dropped by a congested router (NDP mode)
	Retx    bool   // retransmission (priority-queued in NDP mode)
	ECN     bool   // congestion-experienced mark
	Fin     bool   // NDP pull: transfer complete, sender may quiesce
	Hops    int32  // router-router hops traversed (observability)
}

func (p *Packet) prio() bool { return p.Kind != KindData || p.Trimmed || p.Retx }

// link is one direction of a full-duplex cable with an output queue at its
// transmitter. id is its index in Network.links, which for a router-router
// link is the graph arc id it carries; with deliverSeq it keys the canonical
// delivery order (engine.go).
//
// The end of a serialization is a reserved deadline, like a timer's: a
// transmission draws its tx-done key from the transmitter's partition when
// it starts, exactly as queueing a tx-done event then would, and queues the
// packet's delivery at once, since nothing can change it. An evTxDone entry
// under the reservation is queued only while a packet waits behind the
// transmission, and whether the transmitter is still busy is a comparison
// of the executing event with the reservation in queue order. So every
// packet starts at exactly the instant, and draws exactly the keys, that a
// tx-done queued with every transmission would have given it, and a link
// whose queues are empty at the end of a serialization costs one event per
// packet, not two.
//
// The link parameters (bandwidth, delay, ECN threshold, trimming) are the
// same for every link: constants and Network.model; the fields the event
// loop touches on every packet come first, so they share a cache line.
type link struct {
	// (txEnd, txKey): the reserved end of the last serialization; the
	// transmitter is busy while the executing event precedes it.
	txEnd      Time
	txKey      uint64
	id         int32
	toRouter   int32 // receiving router, or -1
	toHost     int32 // receiving host, or -1
	txPart     int32 // partition of the transmitter: its transmissions draw their tx-done keys there
	deliverSeq uint32
	failed     bool // dead cable: every packet handed to it is lost (§V-G)
	txQueued   bool // an evTxDone entry is queued under (txEnd, txKey)

	q  pktRing // data queue
	pq pktRing // priority queue

	// Stats.
	Drops, Trims, failDrops int64
}

// pktRing is a growable power-of-two FIFO of packet handles, bounded by its
// queue's capacity. Steady-state push and pop allocate nothing.
type pktRing struct {
	buf   []int32 // len is zero or a power of two
	head  int32
	n     int32
	limit int32 // queue capacity in packets: callers push only below it
}

func (r *pktRing) len() int { return int(r.n) }

// full reports whether the queue is at its capacity.
func (r *pktRing) full() bool { return r.n >= r.limit }

func (r *pktRing) push(h int32) {
	if int(r.n) == len(r.buf) {
		// Full (or never used): double from 4 slots, to no more than the
		// power of two that holds limit, unwrapping the contents to the
		// front.
		nb := make([]int32, min(max(4, 2*len(r.buf)), 1<<bits.Len(uint(r.limit-1))))
		k := copy(nb, r.buf[r.head:])
		copy(nb[k:], r.buf[:r.head])
		r.buf, r.head = nb, 0
	}
	r.buf[int(r.head+r.n)&(len(r.buf)-1)] = h
	r.n++
}

// pop removes the oldest packet; the ring must not be empty.
func (r *pktRing) pop() int32 {
	h := r.buf[r.head]
	r.head = int32(int(r.head+1) & (len(r.buf) - 1))
	r.n--
	return h
}

// serialization returns the time b bytes take on the wire at LinkBps.
func serialization(b int32) Time {
	return Time(float64(b*8) / LinkBps * 1e9)
}

// enqueue places a packet into the transmitter queue, applying the
// configured congestion behaviour: ECN marking, NDP payload trimming into
// the priority queue (§III-C), or tail drop. Dropped packets return to the
// arena — nothing references them once they leave the queues. p is the
// packet of handle h.
func (l *link) enqueue(e *Engine, h int32, p *Packet) {
	if l.failed {
		l.failDrops++
		e.retire(h)
		return
	}
	if p.prio() {
		if !l.pq.full() {
			l.offer(e, &l.pq, h, p)
		} else {
			l.Drops++
			e.retire(h)
		}
		return
	}
	m := &e.net.model
	if !l.q.full() {
		if m.ecnThreshold > 0 && l.q.len()+1 >= m.ecnThreshold {
			p.ECN = true
		}
		l.offer(e, &l.q, h, p)
		return
	}
	if m.trim {
		// Drop only the payload; the header with all metadata is preserved
		// and prioritized so the receiver learns about the congestion.
		p.Trimmed = true
		p.Bytes = HeaderBytes
		if !l.pq.full() {
			l.Trims++
			l.offer(e, &l.pq, h, p)
		} else {
			l.Drops++
			e.retire(h)
		}
		return
	}
	l.Drops++
	e.retire(h)
}

// offer hands packet h (p) to the transmitter: onto the wire at once if it
// is free — its queues are then empty — or else into r, behind the
// transmission.
func (l *link) offer(e *Engine, r *pktRing, h int32, p *Packet) {
	if !e.before(l.txEnd, l.txKey) {
		l.transmit(e, h, p)
		return
	}
	r.push(h)
	l.awaitTxDone(e)
}

// txDone runs at the reserved end of a serialization that packets wait
// behind: the next one goes on the wire, priority traffic (control packets,
// trimmed headers, retransmissions) first (§III-C).
func (l *link) txDone(e *Engine) {
	l.txQueued = false
	var h int32
	if l.pq.len() > 0 {
		h = l.pq.pop()
	} else {
		h = l.q.pop()
	}
	l.transmit(e, h, e.pkt(h))
	if l.pq.len()+l.q.len() > 0 {
		l.awaitTxDone(e)
	}
}

// transmit starts serializing packet h (p): it reserves the end of
// serialization and queues the delivery.
func (l *link) transmit(e *Engine, h int32, p *Packet) {
	l.txEnd, l.txKey = e.now+serialization(p.Bytes), e.nextKey(l.txPart)
	l.deliverSeq++
	e.push(l.txEnd+linkDelay, deliverKey(l.id, l.deliverSeq), eventPayload{kind: evDeliver, ref: l.id, pkt: h})
}

// awaitTxDone queues the tx-done entry under the reservation, unless one is
// queued already.
func (l *link) awaitTxDone(e *Engine) {
	if !l.txQueued {
		l.txQueued = true
		e.push(l.txEnd, l.txKey, eventPayload{kind: evTxDone, ref: l.id})
	}
}

// Network wires a topology, forwarding tables and hosts into a running
// simulation.
type Network struct {
	topo  *topo.Topology
	fwd   *routing.Engine
	model model
	lb    LoadBalance

	// links holds every link, indexed by id: router-router links first,
	// where a link's id is its graph arc id (graph.EdgeArc), then host
	// up/down pairs. One slab instead of an object per link; pointers into
	// it are stable because it never grows.
	links []link
	// outLink[outOff[r]+p] is the link id from router r to
	// fwd.Neighbors(r)[p]: forward holds a neighbour position, and this is
	// where it leads.
	outOff, outLink []int32
	hostUp          []*link // host -> its router
	hostDown        []*link // router -> host
	// hostRouter[h] is the router host h attaches to: forward resolves the
	// destination router once per hop, so it indexes this table instead of
	// binary-searching the topology's offset table.
	hostRouter []int32

	hostRecv func(e *Engine, host int32, p *Packet)
}

// maxHopBucket saturates the hop histogram's index.
const maxHopBucket = 63

// buildNetwork constructs links per the model. Link ids follow
// construction order, which is a function of the topology alone.
func buildNetwork(t *topo.Topology, fwd *routing.Engine, m model, lb LoadBalance) *Network {
	arcs := 2 * t.G.M()
	n := &Network{
		topo:       t,
		fwd:        fwd,
		model:      m,
		lb:         lb,
		links:      make([]link, 0, arcs+2*t.N()),
		outOff:     make([]int32, t.Nr()+1),
		outLink:    make([]int32, 0, arcs),
		hostUp:     make([]*link, t.N()),
		hostDown:   make([]*link, t.N()),
		hostRouter: make([]int32, t.N()),
	}
	mk := func(txPart, toRouter, toHost int32) *link {
		n.links = append(n.links, link{
			id:       int32(len(n.links)),
			toRouter: toRouter,
			toHost:   toHost,
			txPart:   txPart,
			q:        pktRing{limit: m.queueCap},
			pq:       pktRing{limit: m.prioQueueCap},
		})
		return &n.links[len(n.links)-1]
	}
	for a := range arcs {
		mk(int32(t.G.ArcTail(a)), int32(t.G.ArcTail(a^1)), -1)
	}
	for r := 0; r < t.Nr(); r++ {
		for _, to := range fwd.Neighbors(r) {
			n.outLink = append(n.outLink, int32(t.G.Arc(r, int(to))))
		}
		n.outOff[r+1] = int32(len(n.outLink))
	}
	for h := 0; h < t.N(); h++ {
		r := int32(t.RouterOf(h))
		n.hostRouter[h] = r
		n.hostUp[h] = mk(r, r, -1)
		n.hostDown[h] = mk(r, -1, int32(h))
	}
	return n
}

// sendFromHost injects packet h at its source host's uplink.
func (n *Network) sendFromHost(e *Engine, h int32) {
	e.inflight++
	if e.inflight > e.inflightHW {
		e.inflightHW = e.inflight
	}
	p := e.pkt(h)
	n.hostUp[p.SrcHost].enqueue(e, h, p)
}

// deliver handles packet h (p) arriving at the receiving end of a link. A
// packet handed to its destination host is dead once the transport handler
// returns (no handler retains it) and goes back to the arena.
func (n *Network) deliver(e *Engine, l *link, h int32, p *Packet) {
	if l.toHost >= 0 {
		if p.Kind == KindData {
			h := p.Hops
			if h > maxHopBucket {
				h = maxHopBucket
			}
			e.hopHist[h]++
		}
		n.hostRecv(e, l.toHost, p)
		e.retire(h)
		return
	}
	n.forward(e, int(l.toRouter), h, p)
}

// forward routes a packet at a router: it hashes the packet onto the
// layer's real ECMP candidate set (§V-C) read from the shared routing
// tables. A layer of -1 (ECMP/LetFlow/spray senders) means minimal
// routing over the full topology, which is exactly layer 0. Packets of
// one flowlet keep a consistent hop at every router; a new flowlet's
// fresh salt re-hashes the whole path.
func (n *Network) forward(e *Engine, r int, h int32, p *Packet) {
	dstRouter := int(n.hostRouter[p.DstHost])
	if r == dstRouter {
		n.hostDown[p.DstHost].enqueue(e, h, p)
		return
	}
	p.Hops++
	layer := int(p.Layer)
	if layer < 0 {
		layer = 0
	}
	hops := n.fwd.Hops(layer, r, dstRouter)
	count := hops.Len()
	if count == 0 && layer != 0 {
		// Routing hole in a sparse layer: fall back to the full layer.
		layer = 0
		hops = n.fwd.Hops(0, r, dstRouter)
		count = hops.Len()
	}
	if count == 0 {
		panic(fmt.Sprintf("netsim: no route from router %d to router %d", r, dstRouter))
	}
	var pos int
	if n.lb == LBMinimalLayer {
		// The single-shortest-path baseline must not spread flows over
		// ties: every pair rides the frozen representative hop.
		pos = n.fwd.NextPos(layer, r, dstRouter)
	} else {
		pos = hashNext(hops, count, r, p)
	}
	n.links[n.outLink[int(n.outOff[r])+pos]].enqueue(e, h, p)
}

// TotalDrops sums packet drops over all links.
func (n *Network) TotalDrops() int64 {
	var d int64
	for i := range n.links {
		d += n.links[i].Drops
	}
	return d
}

// TotalTrims sums NDP payload trims over all links.
func (n *Network) TotalTrims() int64 {
	var d int64
	for i := range n.links {
		d += n.links[i].Trims
	}
	return d
}
