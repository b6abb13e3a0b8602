package netsim

// NDP-style purified transport (§III-C), following Handley et al.'s design
// as adapted by FatPaths:
//
//   - The sender transmits the first window (the mode's initial window) at line
//     rate without probing.
//   - Congested routers trim payloads instead of dropping packets; trimmed
//     headers travel in priority queues, so the receiver always learns what
//     was sent.
//   - The receiver drives the transfer: every arrival (full or trimmed)
//     earns one paced PULL; a PULL releases one packet at the sender —
//     a retransmission of a trimmed sequence first, else the next new one.
//   - Retransmissions are priority-queued (head-of-line blocking relief).
//   - When the receiver sees trimmed packets it piggybacks a layer-change
//     request on the next PULL; the sender then re-randomizes the flowlet
//     layer (the LetFlow-over-layers adaptivity of §V-F).
//   - A sender-side keepalive recovers from lost control packets. It stops
//     when a FIN pull arrives: once the receiver holds the whole message it
//     answers any further data with a FIN instead of a credit, giving the
//     sender an explicit, sender-local completion signal. The simulator
//     could let the sender read the receiver's done flag, but a real sender
//     cannot, and the FIN round trip is the behaviour the goldens record.

// ndpSender is the NDP sender's state.
type ndpSender struct {
	nextNew   int32
	retxQ     []int32
	delivered []bool
	lastAct   Time
	kaNext    int32 // keepalive retransmission rotor
	kaTimer   timer
	// finished latches when a Fin pull arrives: the receiver has the whole
	// message and the sender-side keepalive may stop. Sender-local: the
	// sender learns of completion from the wire, never from f.done.
	finished bool
}

// ndpStart launches a flow: the first RTT worth of packets at line rate.
func (s *Sim) ndpStart(e *Engine, f *flow) {
	iw := int32(s.Net.model.initialWindow)
	if iw > f.total {
		iw = f.total
	}
	for i := int32(0); i < iw; i++ {
		s.ndpSendData(e, f, f.ndp.nextNew, false)
		f.ndp.nextNew++
	}
	f.ndp.lastAct = e.Now()
	f.ndp.kaTimer.fire = func(e *Engine) { s.ndpKeepalive(e, f) }
	s.ndpArmKeepalive(e, f)
}

// ndpSendData transmits one data packet (possibly a retransmission).
func (s *Sim) ndpSendData(e *Engine, f *flow, seq int32, retx bool) {
	s.pickRoute(e, f)
	s.Net.sendFromHost(e, s.dataPacket(e, f, seq, f.layer, retx))
}

// ndpRecv handles both receiver-side data and sender-side pulls.
func (s *Sim) ndpRecv(e *Engine, f *flow, host int32, p *Packet) {
	switch p.Kind {
	case KindData:
		if host != f.spec.Dst {
			return // stray
		}
		s.ndpDataAtReceiver(e, f, p)
	case KindPull:
		if host != f.spec.Src {
			return
		}
		s.ndpPullAtSender(e, f, p)
	}
}

func (s *Sim) ndpDataAtReceiver(e *Engine, f *flow, p *Packet) {
	wantLayerChange := false
	if p.Trimmed {
		f.trimsSeen++
		wantLayerChange = true
	} else if !f.received[p.Seq] {
		f.received[p.Seq] = true
		f.numReceived++
		if f.numReceived == f.total {
			s.markDone(e, f)
		}
	}
	if f.pendingLayer {
		wantLayerChange = true
		f.pendingLayer = false
	}
	if f.done {
		// Transfer complete: answer with a FIN pull (no credit, no retx
		// request) so the sender latches completion and its keepalive
		// quiesces. Duplicates arriving later re-trigger the FIN, which
		// also covers a lost one.
		s.ndpSendPull(e, f, p.Seq, false, false, true)
		return
	}
	if p.Trimmed && f.received[p.Seq] {
		// Duplicate of an already-received sequence got trimmed; still pull
		// (it carries the layer-change hint) but do not request retx.
		s.ndpSendPull(e, f, p.Seq, false, wantLayerChange, false)
		return
	}
	s.ndpSendPull(e, f, p.Seq, p.Trimmed, wantLayerChange, false)
}

// ndpSendPull emits a paced PULL carrying the sequence it acknowledges
// (or nacks, when trimmed), the layer-change hint, and the FIN flag.
func (s *Sim) ndpSendPull(e *Engine, f *flow, seq int32, wasTrimmed, layerChange, fin bool) {
	host := f.spec.Dst
	// Pace pulls at the access-link data rate (one per full-MTU time).
	at := e.Now()
	if next := s.lastPull[host] + s.pullInterval; next > at {
		at = next
	}
	s.lastPull[host] = at
	pull := e.newPacket(Packet{
		FlowID:  f.id,
		SrcHost: f.spec.Dst,
		DstHost: f.spec.Src,
		Seq:     seq,
		Bytes:   HeaderBytes,
		Kind:    KindPull,
		Layer:   controlLayer,
		Trimmed: wasTrimmed,
		ECN:     layerChange, // repurposed bit: "change layer" hint
		Fin:     fin,
	})
	e.pushLocal(at, f.dstPart, eventPayload{kind: evInject, ref: s.Net.hostUp[host].id, pkt: pull})
}

func (s *Sim) ndpPullAtSender(e *Engine, f *flow, pull *Packet) {
	f.ndp.lastAct = e.Now()
	if pull.Fin {
		// Receiver has the whole message: stop sending, let the keepalive
		// find the latch and die.
		f.ndp.finished = true
		return
	}
	if pull.Trimmed {
		// The referenced sequence lost its payload: queue a priority retx.
		f.ndp.retxQ = append(f.ndp.retxQ, pull.Seq)
	} else {
		f.ndp.delivered[pull.Seq] = true
	}
	if pull.ECN && s.Cfg.LB == LBFatPaths {
		// Receiver observed congestion on the current layer: re-randomize
		// (forces a flowlet boundary).
		s.reselectLayer(f)
	}
	// A pull releases one packet: retransmissions first.
	if len(f.ndp.retxQ) > 0 {
		seq := f.ndp.retxQ[0]
		f.ndp.retxQ = f.ndp.retxQ[1:]
		s.ndpSendData(e, f, seq, true)
		return
	}
	if f.ndp.nextNew < f.total {
		s.ndpSendData(e, f, f.ndp.nextNew, false)
		f.ndp.nextNew++
	}
}

// ndpIdlePeriods is the keepalive period in units of rtoMin.
const ndpIdlePeriods = 4

func (s *Sim) ndpArmKeepalive(e *Engine, f *flow) {
	e.arm(&f.ndp.kaTimer, f.srcPart, e.now+ndpIdlePeriods*rtoMin)
}

// ndpKeepalive recovers from lost control packets: if nothing happened for
// several RTOmin periods and the flow is incomplete, resend the lowest
// sequence not known to be delivered.
func (s *Sim) ndpKeepalive(e *Engine, f *flow) {
	if f.ndp.finished {
		return
	}
	if e.Now()-f.ndp.lastAct >= ndpIdlePeriods*rtoMin {
		// Rotate through undelivered sequences rather than hammering
		// the lowest one: with lossy control paths the lowest may have
		// arrived long ago while a later one is genuinely missing.
		for probe := int32(0); probe < f.ndp.nextNew; probe++ {
			seq := (f.ndp.kaNext + probe) % f.ndp.nextNew
			if !f.ndp.delivered[seq] {
				s.ndpSendData(e, f, seq, true)
				f.ndp.kaNext = seq + 1
				break
			}
		}
		if f.ndp.nextNew < f.total {
			// Also nudge a new packet in case all sent ones arrived but
			// their pulls were lost.
			s.ndpSendData(e, f, f.ndp.nextNew, false)
			f.ndp.nextNew++
		}
		f.ndp.lastAct = e.Now()
	}
	s.ndpArmKeepalive(e, f)
}
