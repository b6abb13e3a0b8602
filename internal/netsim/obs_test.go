package netsim

import (
	"testing"

	"repro/internal/obs"
)

// TestMetricsFlush runs a small fabric with a metrics bundle attached and
// checks the simulator's end-of-run flush: event and flow tallies land in
// the registry with values consistent with the returned results.
func TestMetricsFlush(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := NDPDefaults()
	cfg.Metrics = obs.NewSimMetrics(reg)
	s, sf := sfSim(t, 5, 4, 0.6, cfg, 7)
	const flows = 8
	for i := 0; i < flows; i++ {
		s.AddFlow(FlowSpec{Src: int32(i), Dst: int32(sf.N() - 1 - i), Bytes: 64 << 10, Start: 0})
	}
	res := s.Run(1 * Second)

	done := 0
	for _, r := range res {
		if r.Done {
			done++
		}
	}
	snap := reg.Snapshot()
	if snap[obs.MetricSimEvents] != int64(s.Eng.Executed()) {
		t.Fatalf("events_processed = %d, engine executed %d",
			snap[obs.MetricSimEvents], s.Eng.Executed())
	}
	if snap[obs.MetricSimEvents] == 0 {
		t.Fatal("no events counted")
	}
	if got := snap[obs.MetricSimFlowsCompleted]; got != int64(done) {
		t.Fatalf("flows_completed = %d, results say %d", got, done)
	}
	if got := reg.Histogram(obs.MetricSimFCTms, obs.FCTBucketsMs).Count(); got != int64(done) {
		t.Fatalf("FCT histogram count = %d, want one sample per completed flow (%d)", got, done)
	}
	if got := reg.Histogram(obs.MetricSimPathHops, obs.PathHopBuckets).Count(); got == 0 {
		t.Fatal("path-hop histogram empty; delivery must record hop counts")
	}
	if snap[obs.MetricSimQueueHighWater] <= 0 {
		t.Fatal("event-queue high-water mark not flushed")
	}
	if snap[obs.MetricSimInflightHW] <= 0 {
		t.Fatal("in-flight packet high-water mark not flushed")
	}
}

// TestMetricsDoNotPerturb runs the identical workload with and without a
// metrics bundle and a tracer; the per-flow results must match exactly.
func TestMetricsDoNotPerturb(t *testing.T) {
	run := func(instrument bool) []FlowResult {
		cfg := NDPDefaults()
		if instrument {
			cfg.Metrics = obs.NewSimMetrics(obs.NewRegistry())
			cfg.Tracer = obs.NewTracer(int64(50 * Millisecond))
		}
		s, sf := sfSim(t, 5, 4, 0.6, cfg, 7)
		for i := 0; i < 8; i++ {
			s.AddFlow(FlowSpec{Src: int32(i), Dst: int32(sf.N() - 1 - i), Bytes: 64 << 10, Start: 0})
		}
		return s.Run(1 * Second)
	}
	plain, instrumented := run(false), run(true)
	if len(plain) != len(instrumented) {
		t.Fatalf("result lengths differ: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("flow %d diverged under instrumentation:\nplain: %+v\ninstr: %+v",
				i, plain[i], instrumented[i])
		}
	}
}

// TestMPTCPTimeoutsCounted: subflow RTO firings reach netsim.tcp_timeouts
// like single-path TCP's do. Shallow queues under an incast force whole
// windows to be lost, which only a retransmission timeout recovers.
func TestMPTCPTimeoutsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := TCPDefaults(TransportMPTCP)
	cfg.Metrics = obs.NewSimMetrics(reg)
	s, sf := sfSim(t, 5, 4, 0.6, cfg, 7)
	for i := range s.Net.links {
		s.Net.links[i].q.limit = 4
	}
	for i := 1; i <= 12; i++ {
		s.AddFlow(FlowSpec{Src: int32(sf.N() - i), Dst: 0, Bytes: 256 << 10, Start: 0})
	}
	s.Run(1 * Second)
	if got := reg.Snapshot()[obs.MetricSimTCPTimeouts]; got == 0 {
		t.Fatal("lossy MPTCP incast flushed tcp_timeouts = 0")
	}
}
