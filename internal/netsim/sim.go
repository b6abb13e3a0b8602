package netsim

import (
	"fmt"
	"strconv"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Transport selects the end-to-end protocol.
type Transport uint8

// Transports.
const (
	// TransportNDP is the purified transport of §III-C: receiver-driven
	// pulls, first window at line rate, payload trimming instead of drops,
	// priority for trimmed headers and retransmissions, shallow buffers.
	TransportNDP Transport = iota
	// TransportTCP is Reno-style TCP (slow start, fast retransmit, RTO)
	// with optional ECN response.
	TransportTCP
	// TransportDCTCP is TCP with the DCTCP fractional ECN window law.
	TransportDCTCP
	// TransportMPTCP stripes each flow over subflows pinned to distinct
	// layers with LIA-coupled windows and ECN-driven cuts (§VIII-A2).
	TransportMPTCP
)

// LoadBalance selects the path-selection policy at senders.
type LoadBalance uint8

// Load-balancing policies.
const (
	// LBECMP hashes each flow once onto minimal paths (static, the
	// routing-performance lower bound of §VII-A3).
	LBECMP LoadBalance = iota
	// LBLetFlow re-hashes onto minimal paths at flowlet boundaries.
	LBLetFlow
	// LBFatPaths selects a (possibly non-minimal) layer per flowlet —
	// FatPaths load balancing (§III-B).
	LBFatPaths
	// LBMinimalLayer pins every packet to layer 0 (single shortest path
	// per pair; isolates the transport from multipathing).
	LBMinimalLayer
	// LBPacketSpray re-hashes every packet onto minimal paths
	// (congestion-oblivious per-packet load balancing, the NDP default).
	LBPacketSpray
)

// The link and host model of §VII-A6, the same in both transport modes.
const (
	// LinkBps is every link's rate in bits per second, per direction.
	LinkBps = 10e9
	// linkDelay is the fixed delay of every hop (§VII-A6 adds 1µs).
	linkDelay = 1 * Microsecond
	// flowletGap is the idle gap that starts a new flowlet (50µs, §VII-A6).
	flowletGap = 50 * Microsecond
	rtoMin     = 200 * Microsecond
	// softwareLatency models endpoint interrupt throttling (100 kHz).
	softwareLatency = 10 * Microsecond
)

// model is the part of §VII-A6 that differs between the two transport
// modes: queue depths, ECN marking, trimming, frame size and first window.
type model struct {
	queueCap, prioQueueCap int32 // queue capacities in packets
	ecnThreshold           int   // mark CE at this data-queue depth (0 = off)
	trim                   bool  // NDP payload trimming
	mtu                    int32
	initialWindow          int // first window in packets
}

// modelOf returns the mode a transport runs in: htsim mode for NDP (9KB
// jumbo frames, 8-packet queues and first window, trimming), OMNeT mode for
// the TCP family (100-packet queues, ECN mark at 33, 1500B frames).
func modelOf(tr Transport) model {
	if tr == TransportNDP {
		return model{queueCap: 8, prioQueueCap: 64, trim: true, mtu: 9000, initialWindow: 8}
	}
	return model{queueCap: 100, prioQueueCap: 256, ecnThreshold: 33, mtu: 1500, initialWindow: 10}
}

// Config holds a run's choices; the physical model follows from Transport.
type Config struct {
	Transport Transport
	LB        LoadBalance
	Seed      int64

	// Shards is inert: NewSim does not read it. It is still declared only
	// because the frozen bench/layers.go assigns it; the [benchmark] PR of
	// ROADMAP item 1(a) deletes it.
	Shards int

	// Metrics, when non-nil, receives the simulation's observability
	// tallies when Run finishes. Hot paths accumulate into plain local
	// fields, so a nil Metrics costs nothing and a shared bundle is
	// touched once per replicate, not per event. Purely observational:
	// results are byte-identical with or without it.
	Metrics *obs.SimMetrics
	// Tracer, when non-nil, is offered to the simulation: the first
	// simulation to acquire it records its event loop and flow lifetimes
	// (bounded window, Chrome trace_event format). Sharing one tracer
	// across a sweep traces exactly one replicate.
	Tracer *obs.Tracer
}

// NDPDefaults returns the configuration of an NDP run with FatPaths load
// balancing.
func NDPDefaults() Config {
	return Config{Transport: TransportNDP, LB: LBFatPaths}
}

// TCPDefaults returns the configuration of a TCP-family run with FatPaths
// load balancing.
func TCPDefaults(tr Transport) Config {
	return Config{Transport: tr, LB: LBFatPaths}
}

// FlowSpec describes one flow (message) to simulate.
type FlowSpec struct {
	Src, Dst int32
	Bytes    int64
	Start    Time
}

// FlowResult reports a finished (or unfinished) flow.
type FlowResult struct {
	FlowSpec
	Done   bool
	Finish Time
	// Retx counts retransmitted packets; TrimsSeen counts trimmed
	// headers observed by the receiver.
	Retx      int64
	TrimsSeen int64
}

// FCT returns the flow completion time (0 if unfinished).
func (r FlowResult) FCT() Time {
	if !r.Done {
		return 0
	}
	return r.Finish - r.Start
}

// ThroughputMiBs returns per-flow goodput in MiB/s (0 if unfinished).
func (r FlowResult) ThroughputMiBs() float64 {
	f := r.FCT()
	if f <= 0 {
		return 0
	}
	return float64(r.Bytes) / f.Seconds() / (1 << 20)
}

// Sim owns one simulation run.
type Sim struct {
	Eng  *Engine
	Net  *Network
	Cfg  Config
	Topo *topo.Topology
	Fwd  *routing.Engine

	flows   []*flow
	results []FlowResult

	// lastPull implements per-host pull pacing for NDP receivers;
	// pullInterval is the pacing gap: one full-MTU serialization time on
	// the access link.
	lastPull     []Time
	pullInterval Time

	traced bool
}

// flow carries per-flow transport state (sender + receiver ends). The two
// ends are separate hosts and talk only through packets: sender handlers
// read sender fields, receiver handlers receiver fields, and what both may
// read is the immutable spec and the subflow ranges.
type flow struct {
	id    int32
	spec  FlowSpec
	total int32 // packets
	mss   int32

	// srcPart / dstPart cache the endpoints' partitions (their routers).
	srcPart, dstPart int32

	// rngState is the flow's private SplitMix64 PRNG, seeded from
	// (Config.Seed, flow id): flowlet salts and layer draws are a sender
	// affair, and a stream per flow means one flow's draws never depend on
	// how many another flow made before it: adding, removing or slowing a
	// flow leaves every other flow's choices where they were.
	rngState uint64

	// Routing / flowlet state (sender side).
	layer    int8
	salt     uint32
	lastSend Time

	// reroutes counts flowlet layer re-selections (sender side; summed
	// into the metrics bundle at flush).
	reroutes int64

	// Receiver state (shared by transports).
	received     []bool
	numReceived  int32
	done         bool
	finish       Time
	trimsSeen    int64
	pendingLayer bool // NDP: ask sender to change layer on next pull
	// rcvInOrder[i] counts the packets of TCP-family subflow i received in
	// order: the subflow's cumulative next-expected is subs[i].lo plus it.
	// Kept incrementally, and here rather than in renoSub, because it is
	// the receiver that advances it.
	rcvInOrder [MPTCPSubflows]int32

	// Sender state. retxCount is common; of the rest only the running
	// transport's part is initialised (by AddFlow and the start event).
	retxCount int64
	ndp       ndpSender

	// TCP-family subflows: created by the sender's start event, before any
	// data can arrive, and from then on their lo/hi are read-only at the
	// receiver. A single subflow lives in one, so TCP and DCTCP allocate
	// nothing and the ACK path stays inside the flow.
	subs     []renoSub
	one      [1]renoSub
	sendTime []Time // first transmission time per sequence (RTT samples)
	timeouts int64  // RTO firings (summed at flush)
}

// randU64 advances the flow's SplitMix64 stream.
func (f *flow) randU64() uint64 {
	f.rngState += 0x9E3779B97F4A7C15
	z := f.rngState
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (f *flow) randUint32() uint32 { return uint32(f.randU64() >> 32) }

// randIntn draws uniformly from [0, n); the modulo bias is negligible for
// the tiny n (layer counts) drawn here.
func (f *flow) randIntn(n int) int { return int(f.randU64() % uint64(n)) }

// NewSim builds a simulation over a topology with per-layer routing
// tables. fwd must include at least layer 0 (all links). The tables live
// in fwd's shared routing engine and materialize lazily per destination,
// so replicate simulations of one fabric — including simulations running
// concurrently on different worker goroutines — pay the route computation
// once; the topology and tables are read-only during a run.
func NewSim(t *topo.Topology, fwd *routing.Engine, cfg Config) *Sim {
	// No packet event is scheduled further ahead than one full-MTU
	// serialization plus one link delay (a delivery, queued when its
	// transmission starts).
	net := buildNetwork(t, fwd, modelOf(cfg.Transport), cfg.LB)
	mtuTime := serialization(net.model.mtu)
	eng := NewEngine(t.Nr(), mtuTime+linkDelay)
	eng.net = net
	s := &Sim{
		Eng:          eng,
		Net:          net,
		Cfg:          cfg,
		Topo:         t,
		Fwd:          fwd,
		lastPull:     make([]Time, t.N()),
		pullInterval: mtuTime,
	}
	net.hostRecv = s.hostRecv
	if cfg.Tracer.TryAcquire() {
		eng.SetTracer(cfg.Tracer)
		s.traced = true
	}
	return s
}

// AddFlow registers a flow; it will start at spec.Start.
func (s *Sim) AddFlow(spec FlowSpec) {
	if spec.Src == spec.Dst {
		panic("netsim: self flow")
	}
	if int(spec.Src) >= s.Topo.N() || int(spec.Dst) >= s.Topo.N() || spec.Src < 0 || spec.Dst < 0 {
		panic(fmt.Sprintf("netsim: flow endpoints (%d,%d) out of range", spec.Src, spec.Dst))
	}
	mss := s.Net.model.mtu - HeaderBytes
	total := int32((spec.Bytes + int64(mss) - 1) / int64(mss))
	if total == 0 {
		total = 1
	}
	f := &flow{
		id:       int32(len(s.flows)),
		spec:     spec,
		total:    total,
		mss:      mss,
		srcPart:  s.Net.hostRouter[spec.Src],
		dstPart:  s.Net.hostRouter[spec.Dst],
		rngState: uint64(exec.FoldSeed(s.Cfg.Seed, uint64(uint32(len(s.flows))))),
		layer:    s.initialLayer(),
		received: make([]bool, total),
	}
	f.salt = f.randUint32()
	if s.Cfg.Transport == TransportNDP {
		f.ndp.delivered = make([]bool, total)
	} else {
		f.sendTime = make([]Time, total)
	}
	s.flows = append(s.flows, f)
	s.Eng.AtPart(spec.Start, f.srcPart, func(e *Engine) { s.startFlow(e, f) })
}

// controlLayer is the layer of every control packet (ACK/PULL): always the
// minimal layer — the pull/ACK clock must not ride long paths. Resilience
// against a failed link black-holing a flow's control channel comes from
// the sender side instead: the NDP keepalive rotates retransmissions
// through undelivered sequences on fresh flowlet layers (§V-G), and TCP's
// timeout path re-randomizes the layer.
const controlLayer int8 = 0

func (s *Sim) initialLayer() int8 {
	switch s.Cfg.LB {
	case LBFatPaths, LBMinimalLayer:
		return 0 // minimal layer by default (§VIII-A1)
	default:
		return -1 // ECMP-style minimal hashing
	}
}

// pickRoute applies the flowlet policy before transmitting a data packet.
func (s *Sim) pickRoute(e *Engine, f *flow) {
	now := e.Now()
	newFlowlet := now-f.lastSend > flowletGap
	switch s.Cfg.LB {
	case LBECMP:
		// Static per-flow hash: nothing to do.
	case LBPacketSpray:
		f.salt = f.randUint32()
	case LBLetFlow:
		if newFlowlet {
			f.salt = f.randUint32()
		}
	case LBFatPaths:
		if newFlowlet {
			// A new flowlet re-randomizes both the layer AND the hash salt:
			// the flowlet rides one consistent path, but successive flowlets
			// spread over the layer's full within-layer ECMP candidate sets
			// (§III-B), not a single frozen hop per (layer, pair).
			s.reselectLayer(f)
			f.salt = f.randUint32()
		}
	case LBMinimalLayer:
		f.layer = 0
	}
	f.lastSend = now
}

// dataPacket builds data packet seq of f for the given layer — the one
// place a KindData packet is made, for every transport — and counts it
// against the flow when it is a retransmission. The last packet of a
// message carries only the bytes that remain (at least one). It returns the
// packet's handle.
func (s *Sim) dataPacket(e *Engine, f *flow, seq int32, layer int8, retx bool) int32 {
	size := f.mss + HeaderBytes
	if int64(seq+1)*int64(f.mss) > f.spec.Bytes {
		rem := f.spec.Bytes - int64(seq)*int64(f.mss)
		if rem < 1 {
			rem = 1
		}
		size = int32(rem) + HeaderBytes
	}
	h := e.newPacket(Packet{
		FlowID:  f.id,
		SrcHost: f.spec.Src,
		DstHost: f.spec.Dst,
		Seq:     seq,
		Bytes:   size,
		Kind:    KindData,
		Layer:   layer,
		Salt:    f.salt,
		Retx:    retx,
	})
	if retx {
		f.retxCount++
	}
	return h
}

// reselectLayer picks a layer uniformly at random among layers that reach
// the destination (§III-B: a random path per flowlet, no probing; flowlet
// elasticity does the adaptation).
func (s *Sim) reselectLayer(f *flow) {
	f.reroutes++
	n := s.Fwd.NumLayers()
	if n <= 1 {
		f.layer = 0
		return
	}
	src := int(f.srcPart)
	dst := int(f.dstPart)
	for try := 0; try < 4; try++ {
		cand := int8(f.randIntn(n))
		if s.Fwd.Reachable(int(cand), src, dst) {
			f.layer = cand
			return
		}
	}
	f.layer = 0
}

func (s *Sim) startFlow(e *Engine, f *flow) {
	if s.traced {
		now := int64(e.Now())
		if s.Cfg.Tracer.Active(now) {
			s.Cfg.Tracer.SpanBegin("flow", flowSpanName(f), strconv.Itoa(int(f.id)), now)
		}
	}
	switch s.Cfg.Transport {
	case TransportNDP:
		s.ndpStart(e, f)
	default:
		s.tcpStart(e, f)
	}
}

// hostRecv dispatches an arriving packet to the right transport handler.
func (s *Sim) hostRecv(e *Engine, host int32, p *Packet) {
	f := s.flows[p.FlowID]
	switch s.Cfg.Transport {
	case TransportNDP:
		s.ndpRecv(e, f, host, p)
	default:
		s.tcpRecv(e, f, host, p)
	}
}

// markDone finalizes a flow at the receiver.
func (s *Sim) markDone(e *Engine, f *flow) {
	if f.done {
		return
	}
	f.done = true
	// Software/interrupt latency before the application sees the message.
	f.finish = e.Now() + softwareLatency
	if s.traced {
		ts := int64(e.Now())
		if s.Cfg.Tracer.Active(ts) {
			s.Cfg.Tracer.SpanEnd("flow", flowSpanName(f), strconv.Itoa(int(f.id)), ts)
		}
	}
}

// flowSpanName labels a flow's async span in the trace viewer.
func flowSpanName(f *flow) string {
	return "flow " + strconv.Itoa(int(f.spec.Src)) + "->" + strconv.Itoa(int(f.spec.Dst))
}

// Run executes the simulation until the horizon and returns per-flow
// results.
func (s *Sim) Run(until Time) []FlowResult {
	s.Eng.Run(until)
	s.results = s.results[:0]
	for _, f := range s.flows {
		s.results = append(s.results, FlowResult{
			FlowSpec:  f.spec,
			Done:      f.done,
			Finish:    f.finish,
			Retx:      f.retxCount,
			TrimsSeen: f.trimsSeen,
		})
	}
	s.flushMetrics()
	return s.results
}

// flushMetrics folds the run's local observability tallies into the shared
// registry bundle — one pass per replicate, nothing on the event hot path.
func (s *Sim) flushMetrics() {
	m := s.Cfg.Metrics
	if m == nil {
		return
	}
	e := s.Eng
	m.Events.Add(e.Executed())
	m.QueueHighWater.SetMax(int64(e.QueueHighWater()))
	m.InflightHighWater.SetMax(e.inflightHW)
	for i, c := range e.hopHist {
		if c > 0 {
			m.PathHops.ObserveN(float64(i), c)
		}
	}
	m.Drops.Add(s.Net.TotalDrops())
	m.Trims.Add(s.Net.TotalTrims())
	var reroutes, timeouts int64
	for _, f := range s.flows {
		reroutes += f.reroutes
		timeouts += f.timeouts
	}
	m.FlowletReroutes.Add(reroutes)
	m.TCPTimeouts.Add(timeouts)
	var completed, retx int64
	for _, r := range s.results {
		retx += r.Retx
		if r.Done {
			completed++
			m.FCTms.Observe(r.FCT().Seconds() * 1e3)
		}
	}
	m.FlowsCompleted.Add(completed)
	m.Retransmits.Add(retx)
}

// CompletedFraction reports the share of flows that finished.
func CompletedFraction(res []FlowResult) float64 {
	if len(res) == 0 {
		return 0
	}
	done := 0
	for _, r := range res {
		if r.Done {
			done++
		}
	}
	return float64(done) / float64(len(res))
}
