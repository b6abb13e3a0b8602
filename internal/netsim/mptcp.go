package netsim

// MPTCP transport (§VIII-A2): FatPaths "uses MPTCP for congestion control,
// as it already provides basic infrastructure ... for setting up multiple
// data streams. Our design uses ECN as a measure of congestion instead of
// packet loss. If an incoming ACK packet does not have the ECN field set,
// we increase the window analogously to traditional TCP. Otherwise (every
// roundtrip time) we update the congestion window size accordingly."
//
// Implementation: a flow opens up to MPTCPSubflows subflows, each pinned
// to a distinct layer and owning a disjoint contiguous range of the
// sequence space. Each subflow runs the Reno machinery of tcp.go over its
// range; window increase is coupled across subflows with the standard
// Linked-Increases Algorithm (LIA), so the aggregate is no more aggressive
// than one TCP on a shared bottleneck. ECN echoes cut the marked subflow's
// window once per RTT (the paper's ECN-driven variant); loss handling
// (fast retransmit, RTO with go-back-N) stays per subflow.
//
// The wire reuses the existing Packet format: a subflow is identified by
// the sequence range its packets fall into, so routers need nothing new.

// MPTCPSubflows is the number of subflows an MPTCP flow opens (bounded by
// the number of layers that reach the destination).
const MPTCPSubflows = 4

// mptcpSub is per-subflow sender state.
type mptcpSub struct {
	layer    int8
	lo, hi   int32 // sequence range [lo, hi)
	nextNew  int32
	cumAck   int32
	cwnd     float64
	ssthresh float64
	dupacks  int
	inRec    bool
	recover  int32
	rtoGen   int64
	rto      Time
	srtt     Time
	rttvar   Time
	cutSeq   int32 // last window-cut boundary (once-per-RTT ECN response)
}

func (ms *mptcpSub) done() bool { return ms.cumAck >= ms.hi }

// mptcpStart opens the subflows: the sequence space is split contiguously,
// one range per usable layer.
func (s *Sim) mptcpStart(sh *Shard, f *flow) {
	src := int(f.srcPart)
	dst := int(f.dstPart)
	var layersUsable []int8
	for l := 0; l < s.Fwd.NumLayers() && len(layersUsable) < MPTCPSubflows; l++ {
		if src == dst || s.Fwd.Reachable(l, src, dst) {
			layersUsable = append(layersUsable, int8(l))
		}
	}
	if len(layersUsable) == 0 {
		layersUsable = []int8{0}
	}
	k := int32(len(layersUsable))
	per := f.total / k
	if per == 0 {
		per = 1
	}
	var subs []*mptcpSub
	lo := int32(0)
	for i := int32(0); i < k && lo < f.total; i++ {
		hi := lo + per
		if i == k-1 || hi > f.total {
			hi = f.total
		}
		subs = append(subs, &mptcpSub{
			layer:    layersUsable[i],
			lo:       lo,
			hi:       hi,
			nextNew:  lo,
			cumAck:   lo,
			cwnd:     float64(s.Cfg.InitialWindow),
			ssthresh: 1 << 20,
			rto:      1 * Millisecond,
		})
		lo = hi
	}
	f.mptcp = subs
	for _, ms := range subs {
		s.mptcpTrySend(sh, f, ms)
		s.mptcpArmRTO(sh, f, ms)
	}
}

// liaAlpha computes the LIA coupling factor:
// α = cwnd_total · max_i(cwnd_i / rtt_i²) / (Σ_i cwnd_i / rtt_i)².
// With the near-identical subflow RTTs of one fabric this reduces to
// cwnd_total · max_i cwnd_i / (Σ_i cwnd_i)².
func liaAlpha(subs []*mptcpSub) float64 {
	var total, maxW, sum float64
	for _, ms := range subs {
		if ms.done() {
			continue
		}
		total += ms.cwnd
		if ms.cwnd > maxW {
			maxW = ms.cwnd
		}
		sum += ms.cwnd
	}
	if sum == 0 {
		return 1
	}
	return total * maxW / (sum * sum)
}

func (s *Sim) mptcpSubFor(f *flow, seq int32) *mptcpSub {
	for _, ms := range f.mptcp {
		if seq >= ms.lo && seq < ms.hi {
			return ms
		}
	}
	return nil
}

func (s *Sim) mptcpTrySend(sh *Shard, f *flow, ms *mptcpSub) {
	sent := false
	for ms.nextNew < ms.hi {
		if float64(ms.nextNew-ms.cumAck) >= ms.cwnd {
			break
		}
		s.mptcpSendData(sh, f, ms, ms.nextNew, false)
		ms.nextNew++
		sent = true
	}
	if sent {
		s.mptcpArmRTO(sh, f, ms)
	}
}

func (s *Sim) mptcpSendData(sh *Shard, f *flow, ms *mptcpSub, seq int32, retx bool) {
	size := f.mss + HeaderBytes
	if int64(seq+1)*int64(f.mss) > f.spec.Bytes {
		rem := f.spec.Bytes - int64(seq)*int64(f.mss)
		if rem < 1 {
			rem = 1
		}
		size = int32(rem) + HeaderBytes
	}
	p := sh.newPacket()
	*p = Packet{
		FlowID:  f.id,
		SrcHost: f.spec.Src,
		DstHost: f.spec.Dst,
		Seq:     seq,
		Bytes:   size,
		Kind:    KindData,
		Layer:   ms.layer, // subflows are pinned to their layer
		Salt:    f.salt,
		Retx:    retx,
	}
	if retx {
		f.snd.retxCount++
	} else {
		f.snd.sendTime[seq] = sh.Now()
	}
	s.Net.sendFromHost(sh, p)
}

// mptcpRecv dispatches receiver data and sender ACKs.
func (s *Sim) mptcpRecv(sh *Shard, f *flow, host int32, p *Packet) {
	switch p.Kind {
	case KindData:
		if host != f.spec.Dst {
			return
		}
		s.mptcpDataAtReceiver(sh, f, p)
	case KindAck:
		if host != f.spec.Src {
			return
		}
		s.mptcpAckAtSender(sh, f, p)
	}
}

func (s *Sim) mptcpDataAtReceiver(sh *Shard, f *flow, p *Packet) {
	if !f.received[p.Seq] {
		f.received[p.Seq] = true
		f.numReceived++
		if f.numReceived == f.total {
			s.markDone(sh, f)
		}
	}
	// Per-subflow cumulative ACK: next expected within the packet's range.
	ms := s.mptcpSubFor(f, p.Seq)
	if ms == nil {
		return
	}
	cum := ms.lo
	for cum < ms.hi && f.received[cum] {
		cum++
	}
	ack := sh.newPacket()
	*ack = Packet{
		FlowID:  f.id,
		SrcHost: f.spec.Dst,
		DstHost: f.spec.Src,
		Seq:     cum,
		Bytes:   HeaderBytes,
		Kind:    KindAck,
		Layer:   0,
		ECN:     p.ECN,
		Salt:    uint32(ms.lo), // identifies the subflow at the sender
	}
	s.Net.sendFromHost(sh, ack)
}

func (s *Sim) mptcpAckAtSender(sh *Shard, f *flow, ack *Packet) {
	ms := s.mptcpSubFor(f, int32(ack.Salt))
	if ms == nil {
		return
	}
	cum := ack.Seq
	switch {
	case cum > ms.cumAck:
		newly := cum - ms.cumAck
		if st := f.snd.sendTime[cum-1]; st > 0 {
			s.mptcpUpdateRTT(ms, sh.Now()-st, s.Cfg.RTOMin)
		}
		ms.cumAck = cum
		ms.dupacks = 0
		if ms.inRec {
			if cum >= ms.recover {
				ms.inRec = false
				ms.cwnd = ms.ssthresh
			} else {
				s.mptcpSendData(sh, f, ms, cum, true) // NewReno partial ACK
			}
		}
		if !ms.inRec {
			if ack.ECN && cum > ms.cutSeq {
				// ECN-driven window law: cut once per RTT (§VIII-A2).
				ms.ssthresh = ms.cwnd / 2
				if ms.ssthresh < 2 {
					ms.ssthresh = 2
				}
				ms.cwnd = ms.ssthresh
				ms.cutSeq = ms.nextNew
			} else if ms.cwnd < ms.ssthresh {
				ms.cwnd += float64(newly) // slow start per subflow
			} else {
				// Coupled increase (LIA): min(α/cwnd_total, 1/cwnd_i).
				alpha := liaAlpha(f.mptcp)
				var total float64
				for _, o := range f.mptcp {
					if !o.done() {
						total += o.cwnd
					}
				}
				inc := alpha / total
				if uncoupled := 1 / ms.cwnd; uncoupled < inc {
					inc = uncoupled
				}
				ms.cwnd += float64(newly) * inc
			}
		}
		s.mptcpArmRTO(sh, f, ms)
	case cum == ms.cumAck && cum < ms.hi:
		ms.dupacks++
		if ms.dupacks == 3 && !ms.inRec {
			ms.ssthresh = ms.cwnd / 2
			if ms.ssthresh < 2 {
				ms.ssthresh = 2
			}
			ms.cwnd = ms.ssthresh + 3
			ms.inRec = true
			ms.recover = ms.nextNew
			s.mptcpSendData(sh, f, ms, cum, true)
			s.mptcpArmRTO(sh, f, ms)
		} else if ms.inRec {
			ms.cwnd++
		}
	}
	s.mptcpTrySend(sh, f, ms)
}

func (s *Sim) mptcpUpdateRTT(ms *mptcpSub, sample, rtoMin Time) {
	if ms.srtt == 0 {
		ms.srtt = sample
		ms.rttvar = sample / 2
	} else {
		diff := ms.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		ms.rttvar = (3*ms.rttvar + diff) / 4
		ms.srtt = (7*ms.srtt + sample) / 8
	}
	ms.rto = ms.srtt + 4*ms.rttvar
	if ms.rto < rtoMin {
		ms.rto = rtoMin
	}
	if ms.rto > maxRTO {
		ms.rto = maxRTO
	}
}

func (s *Sim) mptcpArmRTO(sh *Shard, f *flow, ms *mptcpSub) {
	ms.rtoGen++
	gen := ms.rtoGen
	rto := ms.rto
	if rto <= 0 {
		rto = 1 * Millisecond
	}
	sh.after(f.srcPart, rto, func(sh *Shard) { s.mptcpRTOFire(sh, f, ms, gen) })
}

func (s *Sim) mptcpRTOFire(sh *Shard, f *flow, ms *mptcpSub, gen int64) {
	// Completion is judged per subflow from sender state alone (the
	// receiver's done flag lives on another partition).
	if gen != ms.rtoGen || ms.done() {
		return
	}
	if ms.cumAck >= ms.nextNew {
		return
	}
	f.snd.timeouts++
	ms.ssthresh = ms.cwnd / 2
	if ms.ssthresh < 2 {
		ms.ssthresh = 2
	}
	ms.cwnd = 1
	ms.dupacks = 0
	ms.inRec = false
	ms.rto *= 2
	if ms.rto > maxRTO {
		ms.rto = maxRTO
	}
	f.snd.retxCount += int64(ms.nextNew - ms.cumAck)
	ms.nextNew = ms.cumAck // go-back-N within the subflow
	s.mptcpTrySend(sh, f, ms)
	s.mptcpArmRTO(sh, f, ms)
}
