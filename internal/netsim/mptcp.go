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
// sequence space. Each subflow is a renoSub run by the machinery of tcp.go
// over its range; window increase is coupled across subflows with the
// standard Linked-Increases Algorithm (LIA), so the aggregate is no more
// aggressive than one TCP on a shared bottleneck. ECN echoes cut the marked
// subflow's window once per RTT (the paper's ECN-driven variant); loss
// handling (fast retransmit, RTO with go-back-N) stays per subflow.
//
// What is MPTCP's own is therefore this file's subflow split and coupling
// factor, and the MPTCP arm of windowLaw.

// MPTCPSubflows is the number of subflows an MPTCP flow opens (bounded by
// the number of layers that reach the destination).
const MPTCPSubflows = 4

// mptcpSplit lays out the subflows: the sequence space is split
// contiguously, one range per usable layer.
func (s *Sim) mptcpSplit(f *flow) []renoSub {
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
	subs := make([]renoSub, 0, k)
	lo := int32(0)
	for i := int32(0); i < k && lo < f.total; i++ {
		hi := lo + per
		if i == k-1 || hi > f.total {
			hi = f.total
		}
		subs = append(subs, renoSub{lo: lo, hi: hi, pinned: true, layer: layersUsable[i]})
		lo = hi
	}
	return subs
}

// liaAlpha computes the LIA coupling factor:
// α = cwnd_total · max_i(cwnd_i / rtt_i²) / (Σ_i cwnd_i / rtt_i)².
// With the near-identical subflow RTTs of one fabric this reduces to
// cwnd_total · max_i cwnd_i / (Σ_i cwnd_i)².
func liaAlpha(subs []renoSub) float64 {
	var total, maxW, sum float64
	for i := range subs {
		sub := &subs[i]
		if sub.done() {
			continue
		}
		total += sub.cwnd
		if sub.cwnd > maxW {
			maxW = sub.cwnd
		}
		sum += sub.cwnd
	}
	if sum == 0 {
		return 1
	}
	return total * maxW / (sum * sum)
}
