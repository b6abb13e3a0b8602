package netsim

import (
	mrand "math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/routing"
	"repro/internal/topo"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1, 0)
	var order []int
	e.AtPart(10, 0, func(*Engine) { order = append(order, 1) })
	e.AtPart(5, 0, func(*Engine) { order = append(order, 0) })
	e.AtPart(10, 0, func(*Engine) { order = append(order, 2) }) // same-time FIFO
	n := e.Run(100)
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order=%v", order)
	}
	if e.now != 100 {
		t.Fatalf("now=%d, want horizon 100", e.now)
	}
}

func TestEngineHorizonStopsEarly(t *testing.T) {
	e := NewEngine(1, 0)
	fired := false
	e.AtPart(1000, 0, func(*Engine) { fired = true })
	e.Run(500)
	if fired {
		t.Fatal("event beyond horizon must not fire")
	}
	if e.queue.len() != 1 {
		t.Fatal("event should remain queued")
	}
}

// starSim builds a single-switch network with n hosts.
func starSim(t *testing.T, n int, cfg Config) *Sim {
	t.Helper()
	st, err := topo.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := layers.Random(st.G, 1, 1.0, graph.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	fwd := routing.NewEngine(ls.Base, ls.Masks(), 0)
	return NewSim(st, fwd, cfg)
}

// TestSingleFlowWireBound holds the transport physics to a closed form. A
// lone 16 MiB flow across the one switch of Star(2) cannot finish before
// its wire time: every wire byte serialized at LinkBps on the uplink, the
// last packet serialized again on the downlink, one linkDelay per hop and
// the receiver's softwareLatency. Uncontended, every transport runs at line
// rate and finishes within 1% of that bound.
func TestSingleFlowWireBound(t *testing.T) {
	const bytes, hops = 16 << 20, 2
	atLine := func(b int64) Time { return Time(float64(b*8) / LinkBps * 1e9) }
	for _, tr := range []Transport{TransportNDP, TransportTCP, TransportDCTCP} {
		s := starSim(t, 2, Config{Transport: tr, LB: LBFatPaths})
		s.AddFlow(FlowSpec{Src: 0, Dst: 1, Bytes: bytes})
		res := s.Run(1 * Second)
		if !res[0].Done {
			t.Fatalf("transport %d: flow did not complete", tr)
		}
		mss := int64(s.Net.model.mtu - HeaderBytes)
		pkts := (bytes + mss - 1) / mss
		last := bytes - (pkts-1)*mss + HeaderBytes
		bound := atLine(bytes+pkts*HeaderBytes) + atLine(last) + hops*linkDelay + softwareLatency
		fct := res[0].FCT()
		if fct < bound || float64(fct) > 1.01*float64(bound) {
			t.Errorf("transport %d: FCT %d ns, want within [1, 1.01] of the wire bound %d ns (ratio %.4f)",
				tr, fct, bound, float64(fct)/float64(bound))
		}
	}
}

// TestShortFlowLatency holds a one-packet flow to its closed form, with the
// §VII-A6 model written out rather than read from the package: across
// Star(2)'s one switch the frame (payload plus a 64-byte header) is
// serialized at 10 Gb/s on each of the 2 hops, each hop adds 1 µs of link
// delay, and the receiver adds 10 µs of software latency, exactly. NDP
// frames are at most 9 000 bytes, the TCP family's 1 500.
func TestShortFlowLatency(t *testing.T) {
	for _, c := range []struct {
		tr  Transport
		mtu int64
	}{{TransportNDP, 9000}, {TransportTCP, 1500}, {TransportDCTCP, 1500}, {TransportMPTCP, 1500}} {
		for _, payload := range []int64{1, c.mtu - 64} {
			s := starSim(t, 2, Config{Transport: c.tr, LB: LBFatPaths})
			s.AddFlow(FlowSpec{Src: 0, Dst: 1, Bytes: payload})
			res := s.Run(Second)
			frameNs := (payload + 64) * 8 / 10 // 10 bits per ns
			if want := Time(2*(frameNs+1000) + 10000); res[0].FCT() != want {
				t.Errorf("transport %d, %d-byte flow: FCT %d ns (done %v), want 2·(%d + 1000) + 10000 = %d ns",
					c.tr, payload, res[0].FCT(), res[0].Done, frameNs, want)
			}
		}
	}
}

func TestNDPSingleFlowLineRate(t *testing.T) {
	cfg := NDPDefaults()
	cfg.LB = LBMinimalLayer
	s := starSim(t, 4, cfg)
	const bytes = 1 << 20 // 1 MiB
	s.AddFlow(FlowSpec{Src: 0, Dst: 1, Bytes: bytes, Start: 0})
	res := s.Run(1 * Second)
	if !res[0].Done {
		t.Fatal("flow did not complete")
	}
	// 1MiB at 10 Gb/s ≈ 0.84 ms serialization; allow up to 3x for the
	// two-hop store-and-forward pipeline and pacing.
	fct := res[0].FCT()
	if fct < 800*Microsecond || fct > 2600*Microsecond {
		t.Fatalf("FCT=%v, want ≈0.9–2.6ms", fct)
	}
	tp := res[0].ThroughputMiBs()
	if tp < 400 {
		t.Fatalf("throughput %.0f MiB/s, want near line rate (~1192 max)", tp)
	}
}

func TestNDPIncastCompletesWithTrims(t *testing.T) {
	cfg := NDPDefaults()
	cfg.LB = LBMinimalLayer
	s := starSim(t, 9, cfg)
	for i := int32(1); i < 9; i++ {
		s.AddFlow(FlowSpec{Src: i, Dst: 0, Bytes: 256 << 10, Start: 0})
	}
	res := s.Run(2 * Second)
	for i, r := range res {
		if !r.Done {
			t.Fatalf("incast flow %d did not complete", i)
		}
	}
	if s.Net.TotalTrims() == 0 {
		t.Fatal("8-to-1 incast with 8-packet queues must trim payloads")
	}
	// NDP's trimming means practically no full drops of data packets.
	if s.Net.TotalDrops() > s.Net.TotalTrims()/4 {
		t.Fatalf("drops=%d vs trims=%d: purified transport should avoid drops",
			s.Net.TotalDrops(), s.Net.TotalTrims())
	}
}

func TestTCPSingleFlowCompletes(t *testing.T) {
	cfg := TCPDefaults(TransportTCP)
	cfg.LB = LBMinimalLayer
	s := starSim(t, 4, cfg)
	s.AddFlow(FlowSpec{Src: 0, Dst: 1, Bytes: 1 << 20, Start: 0})
	res := s.Run(1 * Second)
	if !res[0].Done {
		t.Fatal("TCP flow did not complete")
	}
	// Slow start adds RTTs: allow up to 6ms for 1MiB.
	if fct := res[0].FCT(); fct > 6*Millisecond {
		t.Fatalf("FCT=%v, too slow", fct)
	}
}

func TestTCPFairSharing(t *testing.T) {
	cfg := TCPDefaults(TransportTCP)
	cfg.LB = LBMinimalLayer
	s := starSim(t, 4, cfg)
	// Two long flows into the same destination share its access link.
	s.AddFlow(FlowSpec{Src: 0, Dst: 2, Bytes: 2 << 20, Start: 0})
	s.AddFlow(FlowSpec{Src: 1, Dst: 2, Bytes: 2 << 20, Start: 0})
	res := s.Run(4 * Second)
	if !res[0].Done || !res[1].Done {
		t.Fatal("flows did not complete")
	}
	// Each should get roughly half the line rate: FCT ≈ 2x solo.
	for i, r := range res {
		if r.FCT() < 2500*Microsecond {
			t.Fatalf("flow %d FCT=%v suspiciously fast for a shared link", i, r.FCT())
		}
		if r.FCT() > 20*Millisecond {
			t.Fatalf("flow %d FCT=%v too slow", i, r.FCT())
		}
	}
}

func TestDCTCPMarksAndCompletes(t *testing.T) {
	cfg := TCPDefaults(TransportDCTCP)
	cfg.LB = LBMinimalLayer
	s := starSim(t, 6, cfg)
	for i := int32(1); i < 6; i++ {
		s.AddFlow(FlowSpec{Src: i, Dst: 0, Bytes: 512 << 10, Start: 0})
	}
	res := s.Run(4 * Second)
	for i, r := range res {
		if !r.Done {
			t.Fatalf("DCTCP flow %d did not complete", i)
		}
	}
}

// sfSim builds a Slim Fly network with layered forwarding.
func sfSim(t *testing.T, q, nLayers int, rho float64, cfg Config, seed int64) (*Sim, *topo.Topology) {
	t.Helper()
	sf, err := topo.SlimFly(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRand(seed)
	ls, err := layers.Random(sf.G, nLayers, rho, rng)
	if err != nil {
		t.Fatal(err)
	}
	fwd := routing.NewEngine(ls.Base, ls.Masks(), seed)
	return NewSim(sf, fwd, cfg), sf
}

func TestSlimFlyFlowTraversesFabric(t *testing.T) {
	cfg := NDPDefaults()
	s, sf := sfSim(t, 5, 4, 0.6, cfg, 7)
	// Endpoints on distinct routers.
	src, dst := int32(0), int32(sf.N()-1)
	s.AddFlow(FlowSpec{Src: src, Dst: dst, Bytes: 128 << 10, Start: 0})
	res := s.Run(1 * Second)
	if !res[0].Done {
		t.Fatal("flow did not complete across the fabric")
	}
}

// adversarialCollisions builds the controlled collision workload of the
// §IV-A analysis: all p endpoints of each router send to the next router,
// colliding on single shortest paths.
func adversarialCollisions(sf *topo.Topology, bytes int64) []FlowSpec {
	var flows []FlowSpec
	p := int(sf.MeanConcentration())
	for e := 0; e < sf.N(); e++ {
		d := (e + p) % sf.N()
		flows = append(flows, FlowSpec{Src: int32(e), Dst: int32(d), Bytes: bytes, Start: 0})
	}
	return flows
}

func TestFatPathsBeatsECMPOnCollidingTraffic(t *testing.T) {
	// The paper's headline mechanism: with colliding flows and only one
	// shortest path per router pair, ECMP serializes flows while FatPaths
	// spreads flowlets over non-minimal layers (§VII-B2, Fig 14).
	const q, flowBytes = 5, 256 << 10
	run := func(lb LoadBalance, nLayers int, rho float64) Time {
		cfg := NDPDefaults()
		cfg.LB = lb
		s, sf := sfSim(t, q, nLayers, rho, cfg, 11)
		for _, fs := range adversarialCollisions(sf, flowBytes) {
			s.AddFlow(fs)
		}
		res := s.Run(4 * Second)
		var worst Time
		for i, r := range res {
			if !r.Done {
				t.Fatalf("%v: flow %d incomplete", lb, i)
			}
			if r.FCT() > worst {
				worst = r.FCT()
			}
		}
		return worst
	}
	ecmpTail := run(LBECMP, 1, 1.0)
	fpTail := run(LBFatPaths, 9, 0.6)
	if float64(fpTail) > 0.85*float64(ecmpTail) {
		t.Fatalf("FatPaths tail FCT %v not clearly better than ECMP %v on colliding traffic", fpTail, ecmpTail)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	runOnce := func() []FlowResult {
		cfg := NDPDefaults()
		cfg.Seed = 99
		s, sf := sfSim(t, 5, 4, 0.7, cfg, 42)
		for _, fs := range adversarialCollisions(sf, 64<<10) {
			s.AddFlow(fs)
		}
		return s.Run(2 * Second)
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("result count mismatch")
	}
	for i := range a {
		if a[i].Finish != b[i].Finish || a[i].Retx != b[i].Retx {
			t.Fatalf("flow %d: runs differ (%v vs %v)", i, a[i], b[i])
		}
	}
}

func TestLetFlowAndSprayPolicies(t *testing.T) {
	for _, lb := range []LoadBalance{LBLetFlow, LBPacketSpray, LBECMP} {
		cfg := NDPDefaults()
		cfg.LB = lb
		s, sf := sfSim(t, 5, 1, 1.0, cfg, 3)
		s.AddFlow(FlowSpec{Src: 0, Dst: int32(sf.N() - 1), Bytes: 64 << 10, Start: 0})
		res := s.Run(1 * Second)
		if !res[0].Done {
			t.Fatalf("lb=%v: flow did not complete", lb)
		}
	}
}

func TestSummaries(t *testing.T) {
	res := []FlowResult{
		{FlowSpec: FlowSpec{Bytes: 1 << 20, Start: 0}, Done: true, Finish: Time(1 * Millisecond)},
		{FlowSpec: FlowSpec{Bytes: 1 << 20, Start: 0}, Done: false},
	}
	if CompletedFraction(res) != 0.5 {
		t.Fatal("completed fraction wrong")
	}
	if tp := res[0].ThroughputMiBs(); tp < 999 || tp > 1001 {
		t.Fatalf("throughput %v MiB/s, want 1000", tp)
	}
	if tp := res[1].ThroughputMiBs(); tp != 0 {
		t.Fatalf("unfinished flow's throughput %v, want 0", tp)
	}
}

func TestAddFlowValidation(t *testing.T) {
	cfg := NDPDefaults()
	s := starSim(t, 4, cfg)
	for _, bad := range []FlowSpec{
		{Src: 1, Dst: 1, Bytes: 100},
		{Src: -1, Dst: 1, Bytes: 100},
		{Src: 0, Dst: 100, Bytes: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddFlow(%+v) should panic", bad)
				}
			}()
			s.AddFlow(bad)
		}()
	}
}

func TestTinyFlowSinglePacket(t *testing.T) {
	cfg := NDPDefaults()
	s := starSim(t, 3, cfg)
	s.AddFlow(FlowSpec{Src: 0, Dst: 1, Bytes: 10, Start: 0})
	res := s.Run(100 * Millisecond)
	if !res[0].Done {
		t.Fatal("single-packet flow did not complete")
	}
	// RTT-scale completion: two links of ~1µs delay plus tiny serialization
	// plus software latency.
	if res[0].FCT() > 200*Microsecond {
		t.Fatalf("FCT=%v for a 10-byte flow", res[0].FCT())
	}
}

// Invariant: completed flows delivered exactly their payload bytes — the
// simulator conserves data end to end.
func TestByteConservation(t *testing.T) {
	cfg := NDPDefaults()
	s, sf := sfSim(t, 5, 4, 0.7, cfg, 21)
	specs := []FlowSpec{
		{Src: 0, Dst: int32(sf.N() - 1), Bytes: 100},
		{Src: 1, Dst: int32(sf.N() - 2), Bytes: 9000},
		{Src: 2, Dst: int32(sf.N() - 3), Bytes: 1234567},
	}
	for _, fs := range specs {
		s.AddFlow(fs)
	}
	res := s.Run(2 * Second)
	for i, r := range res {
		if !r.Done {
			t.Fatalf("flow %d incomplete", i)
		}
		f := s.flows[i]
		var payload int64
		for seq := int32(0); seq < f.total; seq++ {
			if !f.received[seq] {
				t.Fatalf("flow %d missing seq %d", i, seq)
			}
			sz := int64(f.mss)
			if int64(seq+1)*int64(f.mss) > f.spec.Bytes {
				sz = f.spec.Bytes - int64(seq)*int64(f.mss)
				if sz < 1 {
					sz = 1
				}
			}
			payload += sz
		}
		if payload < r.Bytes {
			t.Fatalf("flow %d delivered %d bytes, want >= %d", i, payload, r.Bytes)
		}
	}
}

// Invariant: no link reports negative stats, every link sits at its id in
// Network.links, and edge e's two directions are links 2e and 2e+1.
func TestLinkStatsSanity(t *testing.T) {
	cfg := NDPDefaults()
	s, sf := sfSim(t, 5, 2, 0.8, cfg, 22)
	s.AddFlow(FlowSpec{Src: 0, Dst: int32(sf.N() - 1), Bytes: 256 << 10})
	s.Run(2 * Second)
	check := func(l *link) {
		if l.Drops < 0 || l.Trims < 0 {
			t.Fatal("negative link stats")
		}
	}
	if want := 2*sf.G.M() + 2*sf.N(); len(s.Net.links) != want {
		t.Fatalf("network has %d links, want %d", len(s.Net.links), want)
	}
	for i := range s.Net.links {
		if l := &s.Net.links[i]; l.id != int32(i) {
			t.Fatalf("link %d carries id %d", i, l.id)
		}
		check(&s.Net.links[i])
	}
	// Every edge's arcs are the links of its two directions.
	for id, e := range sf.G.Edges() {
		uv, vu := &s.Net.links[2*id], &s.Net.links[2*id+1]
		if uv.txPart != e.U || uv.toRouter != e.V || vu.txPart != e.V || vu.toRouter != e.U {
			t.Fatalf("edge %d (%d,%d): links %d->%d and %d->%d", id, e.U, e.V, uv.txPart, uv.toRouter, vu.txPart, vu.toRouter)
		}
	}
}

// TestLinkPositionsFollowRoutingNeighbours builds a network over a topology
// whose adjacency lists run in descending neighbour ID, the reverse of the
// routing engine's ascending order. forward's (router, position) slot must
// still reach the link to fwd.Neighbors(r)[position], that link must be
// the arc-numbered one, and a flow must cross the fabric.
func TestLinkPositionsFollowRoutingNeighbours(t *testing.T) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(sf.Nr())
	for u := sf.Nr() - 1; u >= 0; u-- {
		for v := sf.Nr() - 1; v > u; v-- {
			if sf.G.HasEdge(u, v) {
				g.AddEdge(v, u)
			}
		}
	}
	if nb := g.Neighbors(0); nb[0].To < nb[1].To {
		t.Fatal("adjacency is ascending; the test no longer separates the two orders")
	}
	tp := *sf
	tp.G = g
	fwd := routing.NewEngine(g, [][]bool{nil}, 1)
	s := NewSim(&tp, fwd, NDPDefaults())
	n := s.Net
	for r := 0; r < tp.Nr(); r++ {
		for p, to := range fwd.Neighbors(r) {
			l := &n.links[n.outLink[int(n.outOff[r])+p]]
			if l.txPart != int32(r) || l.toRouter != to {
				t.Fatalf("router %d position %d: link %d runs %d->%d, want %d->%d", r, p, l.id, l.txPart, l.toRouter, r, to)
			}
			if a := g.Arc(r, int(to)); l.id != int32(a) {
				t.Fatalf("router %d position %d is link %d, want arc %d", r, p, l.id, a)
			}
		}
	}
	s.AddFlow(FlowSpec{Src: 0, Dst: int32(tp.N() - 1), Bytes: 64 << 10})
	if res := s.Run(Second); !res[0].Done {
		t.Fatal("flow did not complete over the unsorted topology")
	}
}

// Property: the event engine executes events in non-decreasing time order
// regardless of insertion order.
func TestEngineOrderProperty(t *testing.T) {
	rng := randNew(23)
	for trial := 0; trial < 50; trial++ {
		e := NewEngine(1, 0)
		var times []Time
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(1000))
			e.AtPart(at, 0, func(e *Engine) { times = append(times, e.Now()) })
		}
		e.Run(10000)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatal("events executed out of order")
			}
		}
		if len(times) != n {
			t.Fatalf("executed %d of %d events", len(times), n)
		}
	}
}

func randNew(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

func TestMPTCPSingleFlowCompletes(t *testing.T) {
	cfg := TCPDefaults(TransportMPTCP)
	s, sf := sfSim(t, 5, 4, 0.7, cfg, 40)
	s.AddFlow(FlowSpec{Src: 0, Dst: int32(sf.N() - 1), Bytes: 1 << 20})
	res := s.Run(2 * Second)
	if !res[0].Done {
		t.Fatal("MPTCP flow did not complete")
	}
	if fct := res[0].FCT(); fct > 8*Millisecond {
		t.Fatalf("FCT=%v, too slow for 1MiB over 4 subflows", fct)
	}
}

func TestMPTCPUsesMultipleLayers(t *testing.T) {
	cfg := TCPDefaults(TransportMPTCP)
	s, sf := sfSim(t, 5, 4, 0.7, cfg, 41)
	s.AddFlow(FlowSpec{Src: 0, Dst: int32(sf.N() - 1), Bytes: 1 << 20})
	s.Run(2 * Second)
	f := s.flows[0]
	if len(f.subs) < 2 {
		t.Fatalf("expected multiple subflows, got %d", len(f.subs))
	}
	seen := map[int8]bool{}
	for _, sub := range f.subs {
		seen[sub.layer] = true
		if !sub.pinned {
			t.Fatalf("subflow [%d,%d) is not pinned to its layer", sub.lo, sub.hi)
		}
		if !sub.done() {
			t.Fatalf("subflow [%d,%d) incomplete", sub.lo, sub.hi)
		}
	}
	if len(seen) < 2 {
		t.Fatal("subflows should be pinned to distinct layers")
	}
	// Ranges partition the sequence space.
	covered := int32(0)
	for _, sub := range f.subs {
		covered += sub.hi - sub.lo
	}
	if covered != f.total {
		t.Fatalf("subflow ranges cover %d of %d packets", covered, f.total)
	}
}

func TestMPTCPIncastWithECN(t *testing.T) {
	cfg := TCPDefaults(TransportMPTCP)
	cfg.LB = LBFatPaths
	s, sf := sfSim(t, 5, 4, 0.7, cfg, 42)
	// Several flows into one endpoint force ECN marks on the shared
	// downlink; the ECN window law must still let everything finish.
	for i := 1; i <= 6; i++ {
		lo, _ := sf.Endpoints(i * 3)
		s.AddFlow(FlowSpec{Src: int32(lo), Dst: 0, Bytes: 512 << 10})
	}
	res := s.Run(6 * Second)
	for i, r := range res {
		if !r.Done {
			t.Fatalf("MPTCP incast flow %d incomplete", i)
		}
	}
}

func TestLIAAlphaCoupling(t *testing.T) {
	// Equal windows: alpha = total*max/sum^2 = k*w*w/(k*w)^2 = 1/k.
	subs := []renoSub{
		{cwnd: 10, hi: 100}, {cwnd: 10, hi: 200, lo: 100},
	}
	if a := liaAlpha(subs); a < 0.49 || a > 0.51 {
		t.Fatalf("alpha=%f, want 0.5 for two equal subflows", a)
	}
	// Degenerate: all done -> alpha 1 (no coupling left).
	done := []renoSub{{cwnd: 10, lo: 0, hi: 10, cumAck: 10}}
	if a := liaAlpha(done); a != 1 {
		t.Fatalf("alpha=%f, want 1 when no live subflows", a)
	}
}

func TestMPTCPvsTCPAggregateFairness(t *testing.T) {
	// LIA coupling: an MPTCP flow over 4 subflows must not grossly beat a
	// single TCP on an uncontended path (its aggregate window grows about
	// like one TCP), so FCTs should be the same order of magnitude.
	run := func(tr Transport) Time {
		cfg := TCPDefaults(tr)
		s, sf := sfSim(t, 5, 4, 0.7, cfg, 43)
		s.AddFlow(FlowSpec{Src: 0, Dst: int32(sf.N() - 1), Bytes: 2 << 20})
		res := s.Run(4 * Second)
		if !res[0].Done {
			t.Fatalf("transport %d incomplete", tr)
		}
		return res[0].FCT()
	}
	tcp := run(TransportTCP)
	mptcp := run(TransportMPTCP)
	if float64(mptcp) < 0.3*float64(tcp) {
		t.Fatalf("MPTCP %v vs TCP %v: coupling should prevent a >3x win on one path", mptcp, tcp)
	}
	if float64(mptcp) > 5*float64(tcp) {
		t.Fatalf("MPTCP %v vs TCP %v: striping should not be pathologically slow", mptcp, tcp)
	}
}
