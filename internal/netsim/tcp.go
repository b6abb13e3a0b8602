package netsim

// The Reno sender behind TCP, DCTCP and MPTCP (§VII-A6, §VIII): slow start,
// congestion avoidance, triple-duplicate-ACK fast retransmit with fast
// recovery, retransmission timeouts with a 200µs floor and exponential
// backoff, ECN echo. One subflow state machine, renoSub, is the only
// TCP-family sender state: a TCP or DCTCP flow runs it once, unpinned, over
// the whole message; an MPTCP flow runs it up to MPTCPSubflows times, each
// pinned to a layer and owning a contiguous sequence range (mptcp.go). The
// transports differ only in windowLaw.
//
// All sender handlers run on the source host's partition and all receiver
// handlers on the destination's; completion is decided on each side from
// its own state (cumAck at the sender, received counts at the receiver),
// never by peeking across.

const (
	dctcpG = 1.0 / 16 // DCTCP EWMA gain
	maxRTO = 100 * Millisecond
)

// renoSub is one Reno sender over the sequence range [lo, hi) of flow f.
type renoSub struct {
	f            *flow
	lo, hi       int32
	nextNew      int32
	cumAck       int32
	cwnd         float64
	ssthresh     float64
	dupacks      int
	inRecovery   bool
	recover      int32
	rto          Time
	rtoTimer     timer
	srtt, rttvar Time
	lastCutSeq   int32 // last window-cut boundary (once-per-window ECN response)
	// A pinned subflow sends on layer for its whole life; an unpinned one
	// follows the flow's flowlet policy and re-randomizes the flow's layer
	// when it sees congestion.
	pinned bool
	layer  int8
	// DCTCP.
	alpha               float64
	ceAcked, totalAcked int64
	alphaWindowEnd      int32
}

func (sub *renoSub) done() bool { return sub.cumAck >= sub.hi }

// halve sets ssthresh to half the window, floored at 2.
func (sub *renoSub) halve() {
	sub.ssthresh = sub.cwnd / 2
	if sub.ssthresh < 2 {
		sub.ssthresh = 2
	}
}

// grow is Reno's window increase for newly acked packets outside recovery.
func (sub *renoSub) grow(newly int32) {
	if sub.inRecovery {
		return
	}
	if sub.cwnd < sub.ssthresh {
		sub.cwnd += float64(newly) // slow start
	} else {
		sub.cwnd += float64(newly) / sub.cwnd // congestion avoidance
	}
}

// subIndex returns the subflow whose range holds seq.
func (f *flow) subIndex(seq int32) int {
	for i := range f.subs {
		if seq < f.subs[i].hi {
			return i
		}
	}
	panic("netsim: sequence outside every subflow")
}

// tcpStart opens the flow's subflows in slow start.
func (s *Sim) tcpStart(e *Engine, f *flow) {
	if s.Cfg.Transport == TransportMPTCP {
		f.subs = s.mptcpSplit(f)
	} else {
		f.one[0] = renoSub{hi: f.total}
		f.subs = f.one[:]
	}
	cwnd := float64(s.Net.model.initialWindow)
	for i := range f.subs {
		sub := &f.subs[i]
		sub.f = f
		sub.nextNew, sub.cumAck = sub.lo, sub.lo
		sub.cwnd = cwnd
		sub.ssthresh = 1 << 20
		sub.rto = 1 * Millisecond
		sub.rtoTimer.fire = func(e *Engine) { s.tcpRTOFire(e, sub) }
		s.tcpTrySend(e, sub)
		s.tcpArmRTO(e, sub)
	}
}

// tcpTrySend transmits while the congestion window allows. Sending with an
// idle retransmission timer re-arms it so tail losses cannot stall a flow.
func (s *Sim) tcpTrySend(e *Engine, sub *renoSub) {
	sent := false
	for sub.nextNew < sub.hi {
		inflight := float64(sub.nextNew - sub.cumAck)
		if inflight >= sub.cwnd {
			break
		}
		s.tcpSendData(e, sub, sub.nextNew, false)
		sub.nextNew++
		sent = true
	}
	if sent {
		s.tcpArmRTO(e, sub)
	}
}

func (s *Sim) tcpSendData(e *Engine, sub *renoSub, seq int32, retx bool) {
	f := sub.f
	layer := sub.layer
	if !sub.pinned {
		s.pickRoute(e, f)
		layer = f.layer
	}
	h := s.dataPacket(e, f, seq, layer, retx)
	if !retx {
		f.sendTime[seq] = e.Now()
	}
	s.Net.sendFromHost(e, h)
}

// tcpRecv dispatches data at the receiver and ACKs at the sender.
func (s *Sim) tcpRecv(e *Engine, f *flow, host int32, p *Packet) {
	switch p.Kind {
	case KindData:
		if host != f.spec.Dst {
			return
		}
		s.tcpDataAtReceiver(e, f, p)
	case KindAck:
		if host != f.spec.Src {
			return
		}
		s.tcpAckAtSender(e, f, p)
	}
}

func (s *Sim) tcpDataAtReceiver(e *Engine, f *flow, p *Packet) {
	if !f.received[p.Seq] {
		f.received[p.Seq] = true
		f.numReceived++
		if f.numReceived == f.total {
			s.markDone(e, f)
		}
	}
	// Per-subflow cumulative ACK: next expected within the packet's range.
	// The wire reuses the existing Packet format — Salt carries the range's
	// lo, which identifies the subflow at the sender — so routers need
	// nothing new. The ECN echo reflects the CE mark of this data packet
	// (per-packet echo, sufficient for the DCTCP estimator).
	i := f.subIndex(p.Seq)
	lo, hi := f.subs[i].lo, f.subs[i].hi
	cum := lo + f.rcvInOrder[i]
	for cum < hi && f.received[cum] {
		cum++
	}
	f.rcvInOrder[i] = cum - lo
	ack := e.newPacket(Packet{
		FlowID:  f.id,
		SrcHost: f.spec.Dst,
		DstHost: f.spec.Src,
		Seq:     cum,
		Bytes:   HeaderBytes,
		Kind:    KindAck,
		Layer:   controlLayer,
		ECN:     p.ECN,
		Salt:    uint32(lo),
	})
	s.Net.sendFromHost(e, ack)
}

func (s *Sim) tcpAckAtSender(e *Engine, f *flow, ack *Packet) {
	sub := &f.subs[f.subIndex(int32(ack.Salt))]
	cum := ack.Seq
	switch {
	case cum > sub.cumAck:
		newly := cum - sub.cumAck
		// RTT sample from the highest newly acked original transmission.
		if st := f.sendTime[cum-1]; st > 0 {
			s.tcpUpdateRTT(sub, e.Now()-st)
		}
		sub.cumAck = cum
		sub.dupacks = 0
		if sub.inRecovery {
			if cum >= sub.recover {
				sub.inRecovery = false
				sub.cwnd = sub.ssthresh
			} else {
				// NewReno partial ACK: the next hole is at cum —
				// retransmit it immediately instead of waiting for an RTO.
				s.tcpSendData(e, sub, cum, true)
			}
		}
		s.windowLaw(sub, newly, cum, ack.ECN)
		s.tcpArmRTO(e, sub)
	case cum == sub.cumAck && cum < sub.hi:
		sub.dupacks++
		if sub.dupacks == 3 && !sub.inRecovery {
			// Fast retransmit + fast recovery.
			sub.halve()
			sub.cwnd = sub.ssthresh + 3
			sub.inRecovery = true
			sub.recover = sub.nextNew
			s.tcpSendData(e, sub, cum, true)
			s.congested(sub) // loss signals congestion on this layer
			s.tcpArmRTO(e, sub)
		} else if sub.inRecovery {
			sub.cwnd++ // window inflation per dupack
		}
	}
	s.tcpTrySend(e, sub)
}

// congested re-randomizes the layer of an unpinned subflow's flow: a window
// cut or a loss is a natural flowlet boundary, and FatPaths re-randomizes
// the layer there (§VIII-A1). reselectLayer draws from the flow's RNG, so
// where this is called is part of the model.
func (s *Sim) congested(sub *renoSub) {
	if !sub.pinned && s.Cfg.LB == LBFatPaths {
		s.reselectLayer(sub.f)
	}
}

// windowLaw is all that differs between the transports: how a subflow's
// window responds to an ACK that advanced cumAck to cum by newly packets,
// echoing ecn. Reno and DCTCP grow first and then apply their ECN response
// (the response also runs in recovery, growth does not); MPTCP's ECN cut
// replaces growth, and in recovery its window is left alone.
func (s *Sim) windowLaw(sub *renoSub, newly, cum int32, ecn bool) {
	switch s.Cfg.Transport {
	case TransportMPTCP:
		// §VIII-A2: "If an incoming ACK packet does not have the ECN field
		// set, we increase the window analogously to traditional TCP.
		// Otherwise (every roundtrip time) we update the congestion window
		// size accordingly."
		switch {
		case sub.inRecovery: // window held until recovery exits
		case ecn && cum > sub.lastCutSeq:
			sub.halve()
			sub.cwnd = sub.ssthresh
			sub.lastCutSeq = sub.nextNew
		case sub.cwnd < sub.ssthresh:
			sub.cwnd += float64(newly) // slow start per subflow
		default:
			// Coupled increase (LIA): min(α/cwnd_total, 1/cwnd_i).
			subs := sub.f.subs
			alpha := liaAlpha(subs)
			var total float64
			for i := range subs {
				if !subs[i].done() {
					total += subs[i].cwnd
				}
			}
			inc := alpha / total
			if uncoupled := 1 / sub.cwnd; uncoupled < inc {
				inc = uncoupled
			}
			sub.cwnd += float64(newly) * inc
		}
	case TransportDCTCP:
		// The fractional window law driven by the marked-byte estimate α.
		sub.grow(newly)
		sub.totalAcked += int64(newly)
		if ecn {
			sub.ceAcked += int64(newly)
		}
		if cum >= sub.alphaWindowEnd {
			frac := 0.0
			if sub.totalAcked > 0 {
				frac = float64(sub.ceAcked) / float64(sub.totalAcked)
			}
			sub.alpha = (1-dctcpG)*sub.alpha + dctcpG*frac
			if frac > 0 {
				sub.cwnd = sub.cwnd * (1 - sub.alpha/2)
				if sub.cwnd < 1 {
					sub.cwnd = 1
				}
				sub.ssthresh = sub.cwnd
				s.congested(sub)
			}
			sub.ceAcked, sub.totalAcked = 0, 0
			sub.alphaWindowEnd = sub.nextNew
		}
	default:
		// Reno+ECN: halve once per window on echoed congestion.
		sub.grow(newly)
		if ecn && cum > sub.lastCutSeq {
			sub.halve()
			sub.cwnd = sub.ssthresh
			sub.lastCutSeq = sub.nextNew
			s.congested(sub)
		}
	}
}

func (s *Sim) tcpUpdateRTT(sub *renoSub, sample Time) {
	if sub.srtt == 0 {
		sub.srtt = sample
		sub.rttvar = sample / 2
	} else {
		diff := sub.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		sub.rttvar = (3*sub.rttvar + diff) / 4
		sub.srtt = (7*sub.srtt + sample) / 8
	}
	sub.rto = sub.srtt + 4*sub.rttvar
	if sub.rto < rtoMin {
		sub.rto = rtoMin
	}
	if sub.rto > maxRTO {
		sub.rto = maxRTO
	}
}

// tcpArmRTO (re)arms the retransmission timer on the sender's partition.
func (s *Sim) tcpArmRTO(e *Engine, sub *renoSub) {
	rto := sub.rto
	if rto <= 0 {
		rto = 1 * Millisecond
	}
	e.arm(&sub.rtoTimer, sub.f.srcPart, e.now+rto)
}

func (s *Sim) tcpRTOFire(e *Engine, sub *renoSub) {
	// Completion is judged per subflow from sender state alone (cumAck):
	// a sender cannot see the receiver's done flag.
	if sub.done() {
		return
	}
	if sub.cumAck >= sub.nextNew {
		// Nothing outstanding; timer idles until the next send.
		return
	}
	// Timeout: multiplicative backoff, window collapse, go-back-N restart
	// within the subflow (retransmit everything from the first hole, as
	// SACK-less Reno does; duplicates are discarded by the receiver).
	f := sub.f
	f.timeouts++
	sub.halve()
	sub.cwnd = 1
	sub.dupacks = 0
	sub.inRecovery = false
	sub.rto *= 2
	if sub.rto > maxRTO {
		sub.rto = maxRTO
	}
	f.retxCount += int64(sub.nextNew - sub.cumAck)
	sub.nextNew = sub.cumAck
	s.tcpTrySend(e, sub)
	s.congested(sub)
	s.tcpArmRTO(e, sub)
}
