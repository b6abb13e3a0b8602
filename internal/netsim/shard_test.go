package netsim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/topo"
)

// shardFabric builds a shared SlimFly fabric for the equivalence tests:
// the same topology and forwarding tables serve simulations at every
// shard count, exactly as replicates share them in production.
func shardFabric(t *testing.T, q, nLayers int, rho float64, seed int64) (*topo.Topology, *layers.Forwarding) {
	t.Helper()
	sf, err := topo.SlimFly(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := layers.Random(sf.G, nLayers, rho, graph.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sf, layers.NewForwarding(ls, seed)
}

// runSharded runs a fixed permutation+incast workload at the given shard
// count, with failLinks random router-router links failed before the run,
// and returns the per-flow results plus the executed-event count.
func runSharded(tp *topo.Topology, fwd *layers.Forwarding, cfg Config, shards, failLinks int) ([]FlowResult, int64) {
	cfg.Shards = shards
	s := NewSim(tp, fwd, cfg)
	if failLinks > 0 {
		s.Net.FailRandomLinks(failLinks, graph.NewRand(cfg.Seed))
	}
	n := tp.N()
	half := n / 2
	for i := 0; i < half; i++ {
		s.AddFlow(FlowSpec{
			Src:   int32(i),
			Dst:   int32((i + half) % n),
			Bytes: 96 << 10,
			Start: Time(i) * 3 * Microsecond,
		})
	}
	// An incast hot spot stresses trims/timeouts and control traffic.
	for i := 1; i <= 6 && i < n; i++ {
		s.AddFlow(FlowSpec{Src: int32(i), Dst: 0, Bytes: 64 << 10, Start: 5 * Microsecond})
	}
	res := s.Run(80 * Millisecond)
	return res, s.Eng.Executed()
}

// TestShardedSimEquivalence is the determinism contract at the simulator
// level: for every transport, and with links failed under the flows (the
// ext-failures leg: packets die on failed links and flows re-route),
// running the identical workload at shard counts 1, 2, 3, and 8 must
// produce identical per-flow results AND execute the identical number of
// events — the event schedules are equal, not merely the outcomes.
func TestShardedSimEquivalence(t *testing.T) {
	tp, fwd := shardFabric(t, 5, 4, 0.6, 11)
	cases := []struct {
		name      string
		cfg       Config
		failLinks int
	}{
		{"ndp-fatpaths", NDPDefaults(), 0},
		{"tcp-fatpaths", TCPDefaults(TransportTCP), 0},
		{"dctcp-letflow", func() Config { c := TCPDefaults(TransportDCTCP); c.LB = LBLetFlow; return c }(), 0},
		{"mptcp", TCPDefaults(TransportMPTCP), 0},
		{"ndp-failed-links", NDPDefaults(), tp.G.M() / 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.cfg.Seed = 42
			base, baseEvents := runSharded(tp, fwd, tc.cfg, 1, tc.failLinks)
			for _, shards := range []int{2, 3, 8} {
				got, gotEvents := runSharded(tp, fwd, tc.cfg, shards, tc.failLinks)
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("shards=%d: flow results diverge from serial run", shards)
				}
				if gotEvents != baseEvents {
					t.Fatalf("shards=%d executed %d events, serial executed %d", shards, gotEvents, baseEvents)
				}
			}
		})
	}
}

// TestShardedRequiresLookahead pins the safety check: a sharded engine
// without a positive link delay has no conservative window and must
// refuse to build.
func TestShardedRequiresLookahead(t *testing.T) {
	tp, fwd := shardFabric(t, 5, 1, 1.0, 1)
	cfg := NDPDefaults()
	cfg.LinkDelay = 0
	cfg.Shards = 4
	defer func() {
		if recover() == nil {
			t.Fatal("NewSim accepted Shards>1 with zero LinkDelay")
		}
	}()
	NewSim(tp, fwd, cfg)
}

// TestShardBarrierHammer drives the window barrier hard under -race: many
// concurrent simulations, each sharded well beyond the available cores,
// sharing one forwarding view — the layout of a parallel sweep running
// sharded replicates. Every worker checks its results against a
// serial baseline.
func TestShardBarrierHammer(t *testing.T) {
	tp, fwd := shardFabric(t, 5, 3, 0.7, 3)
	cfg := NDPDefaults()
	cfg.Seed = 7
	base, _ := runSharded(tp, fwd, cfg, 1, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := runSharded(tp, fwd, cfg, 2+w%7, 0)
			if !reflect.DeepEqual(got, base) {
				errs <- "concurrent sharded run diverged from serial baseline"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
