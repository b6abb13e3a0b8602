// Package repro's root benchmark harness: one benchmark per evaluation
// table and figure of the FatPaths paper, each regenerating the
// corresponding rows via internal/experiments (quick scale; run
// cmd/experiments -full for paper-scale numbers), plus microbenchmarks of
// the core building blocks (layer construction, forwarding, diversity
// metrics, the simulator's event loop).
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Quick: true, Run: exec.Run{Seed: 42}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
		}
	}
}

// Evaluation figures and tables (§IV, §VI, §VII, Appendix D).

func BenchmarkFig2Throughput(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig4Collisions(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig6MinimalPaths(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7NonMinimal(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8Interference(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9MAT(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10Cost(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11Adversarial(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12LayerSweep(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13LargeScale(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14TCP(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkFig15Distribution(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16RhoSweep(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkFig17Stencil(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig19Scaling(b *testing.B)      { benchExperiment(b, "fig19") }
func BenchmarkFig20Lambda(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkFig21NDPLambda(b *testing.B)    { benchExperiment(b, "fig21") }
func BenchmarkTable4CDPPI(b *testing.B)       { benchExperiment(b, "tab4") }
func BenchmarkTable5Topologies(b *testing.B)  { benchExperiment(b, "tab5") }

// Ablation studies (§III of the paper; see the experiment table in
// README.md).

func BenchmarkAblationTransport(b *testing.B)         { benchExperiment(b, "abl-transport") }
func BenchmarkAblationLayerConstruction(b *testing.B) { benchExperiment(b, "abl-construction") }
func BenchmarkAblationRandomization(b *testing.B)     { benchExperiment(b, "abl-randomization") }

// Extensions: fault tolerance (§V-G), MPTCP striping (§VIII-A2), and
// forwarding-state sizing (§V-D/E).

func BenchmarkExtFailures(b *testing.B)    { benchExperiment(b, "ext-failures") }
func BenchmarkExtMPTCP(b *testing.B)       { benchExperiment(b, "ext-mptcp") }
func BenchmarkExtTableSizing(b *testing.B) { benchExperiment(b, "ext-tables") }

// Microbenchmarks of the core building blocks.

func BenchmarkLayerConstructionRandom(b *testing.B) {
	sf, err := topo.SlimFly(11, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layers.Random(sf.G, 9, 0.6, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayerConstructionMinInterference(b *testing.B) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layers.MinInterference(sf.G, layers.MinInterferenceConfig{N: 4, ExtraHops: 1}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayerConstructionSPAIN builds fig9's SPAIN layers on its Xpander:
// Nr²·K Dijkstra searches on one scratch, colouring, forest merging. The
// exact solve those layers feed is BenchmarkLPPathMAT in internal/lp, the
// one place a pivot count can be read.
func BenchmarkLayerConstructionSPAIN(b *testing.B) {
	xp, err := topo.Xpander(8, 8, 0, graph.NewRand(42))
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layers.SPAIN(xp.G, layers.SPAINConfig{K: 2, MaxLayers: 4}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBuildAll times eager construction of ls's tables, serially and on
// all cores, and reports the routing core's ledger line — µs/table,
// allocs/table and the bytes a built table holds — beside ns/op.
func benchBuildAll(b *testing.B, ls *layers.LayerSet) {
	tables := float64(ls.N() * ls.Base.N())
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var e *routing.Engine
			for i := 0; i < b.N; i++ {
				e = routing.NewEngine(ls.Base, ls.Masks(), 1)
				e.BuildAll(bc.workers)
			}
			runtime.ReadMemStats(&after)
			built := tables * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/built, "µs/table")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/built, "allocs/table")
			b.ReportMetric(float64(e.Stat().Bytes)/tables, "B/table")
		})
	}
}

// BenchmarkRoutingBuild measures eager construction of the multi-next-hop
// tables (internal/routing) for a 9-layer Slim Fly — the table-build path
// every fabric pays once.
func BenchmarkRoutingBuild(b *testing.B) {
	sf, err := topo.SlimFly(11, 0)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := layers.Random(sf.G, 9, 0.6, graph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	benchBuildAll(b, ls)
}

// BenchmarkAdmissionTables is BenchmarkRoutingBuild over the five fabrics
// the repository benchmark's daemon-churn workload admits (bench/e2e.go,
// churnTopologies, at the daemon's default layer settings): the per-fabric
// rows of PERF.md, "where a fabric admission's time goes".
func BenchmarkAdmissionTables(b *testing.B) {
	for _, t := range []scenario.Topology{
		{Kind: "SF", Param: 11}, {Kind: "JF", Param: 11}, {Kind: "XP", Param: 16},
		{Kind: "HX", Param: 7}, {Kind: "FT3", Param: 8},
	} {
		spec := scenario.Spec{Topology: t}
		_, fab, err := scenario.BuildFabric(spec, 42, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s%d", t.Kind, t.Param), func(b *testing.B) {
			fab.Fwd.BuildAll(0)
			st := fab.Fwd.Stat()
			b.Logf("Nr=%d M=%d layers=%d tables=%d candEntries=%d", fab.Topo.Nr(), fab.Topo.G.M(), fab.Layers.N(), st.TablesBuilt, st.CandEntries)
			benchBuildAll(b, fab.Layers)
		})
	}
}

// BenchmarkForwardingHotPath measures the layered-forwarding lookups the
// simulator issues per hop: candidate-set reads and deterministic
// next-hop picks against fully materialized tables.
func BenchmarkForwardingHotPath(b *testing.B) {
	sf, err := topo.SlimFly(11, 0)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := layers.Random(sf.G, 9, 0.6, graph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	f := routing.NewEngine(ls.Base, ls.Masks(), 1)
	f.BuildAll(0)
	nr := sf.Nr()
	nl := f.NumLayers()
	b.Run("candidates", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		var buf []int32
		for i := 0; i < b.N; i++ {
			l := i % nl
			s := (i * 31) % nr
			d := (i*17 + 1) % nr
			buf = f.AppendCandidates(buf[:0], l, s, d)
			sink += len(buf)
		}
		benchSink = sink
	})
	b.Run("next", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			l := i % nl
			s := (i * 31) % nr
			d := (i*17 + 1) % nr
			sink += f.Next(l, s, d)
		}
		benchSink = int(sink)
	})
}

// benchSink defeats dead-code elimination in the hot-path benchmarks.
var benchSink int

func BenchmarkDisjointPathsCDP(b *testing.B) {
	sf, err := topo.SlimFly(11, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := graph.SampleDistinctPair(rng, sf.Nr())
		sf.G.DisjointPathsBounded([]int{s}, []int{t}, graph.DisjointPathsOpts{MaxLen: 3})
	}
}

func BenchmarkRankConnectivity(b *testing.B) {
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := graph.SampleDistinctPair(rng, sf.Nr())
		diversity.EdgeConnectivityBounded(sf.G, s, t, 3, rng)
	}
}

func BenchmarkSimulatorEventThroughput(b *testing.B) {
	// Measures raw packet-event throughput: a saturated permutation on a
	// small Slim Fly, under the purified transport (shallow queues: the
	// event queue holds a few hundred entries) and under DCTCP (100-packet
	// queues: a few thousand), so the ledger sees both ends of the event
	// queue's operating range.
	sf, err := topo.SlimFly(5, 0)
	if err != nil {
		b.Fatal(err)
	}
	fab, err := core.Build(sf, core.DefaultConfig(sf))
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(2)
	pat := traffic.RandomPermutation(rng, sf.N())
	for _, tr := range []struct {
		name string
		cfg  netsim.Config
	}{{"ndp", netsim.NDPDefaults()}, {"dctcp", netsim.TCPDefaults(netsim.TransportDCTCP)}} {
		b.Run(tr.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim := fab.NewSimulation(tr.cfg)
				for _, fl := range pat.Flows {
					sim.AddFlow(netsim.FlowSpec{Src: fl.Src, Dst: fl.Dst, Bytes: 128 << 10})
				}
				res := sim.Run(2 * netsim.Second)
				if netsim.CompletedFraction(res) < 0.99 {
					b.Fatal("flows did not complete")
				}
				events += sim.Eng.Executed()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			// The same two numbers the repo benchmark reports per traced sweep as
			// netsim.ns_per_event / netsim.allocs_per_event (set-up included).
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
		})
	}
}

// BenchmarkNetsimReplicate measures one mid-size fig2-style replicate end
// to end — fabric reuse, Poisson arrivals, the purified transport on a
// randomized-uniform workload — plain and with the full metrics registry
// attached. The two sub-benchmarks bound the instrumentation overhead on
// the simulator's hot loop (local tallies + one flush; the disabled path
// is a nil check per replicate).
func BenchmarkNetsimReplicate(b *testing.B) {
	sf, err := topo.SlimFly(7, 0)
	if err != nil {
		b.Fatal(err)
	}
	// cell runs one replicate of that workload per iteration under cfg and
	// reports the event loop's cost per executed event, like the event-core
	// ledger line of BenchmarkSimulatorEventThroughput.
	cell := func(b *testing.B, cfg netsim.Config) {
		fab, err := core.Build(sf, core.DefaultConfig(sf))
		if err != nil {
			b.Fatal(err)
		}
		rng := graph.NewRand(2)
		wl := core.Workload{
			Pattern:  traffic.RandomizeMapping(traffic.RandomPermutation(rng, sf.N()), rng),
			FlowSize: traffic.FixedSize(256 << 10),
			Lambda:   300,
		}
		var events int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim := fab.NewSimulation(cfg)
			wl.Schedule(sim, graph.NewRand(7))
			if netsim.CompletedFraction(sim.Run(4*netsim.Second)) < 0.95 {
				b.Fatal("flows did not complete")
			}
			events += sim.Eng.Executed()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
	b.Run("plain", func(b *testing.B) { cell(b, netsim.NDPDefaults()) })
	b.Run("instrumented", func(b *testing.B) {
		cfg := netsim.NDPDefaults()
		cfg.Metrics = obs.NewSimMetrics(obs.NewRegistry())
		cell(b, cfg)
	})

	// transport=T: the same cell under each window law of the one
	// Reno sender, so each law has its own ns/event in BENCH_netsim.json.
	for _, tr := range []struct {
		name string
		t    netsim.Transport
	}{{"tcp", netsim.TransportTCP}, {"dctcp", netsim.TransportDCTCP}, {"mptcp", netsim.TransportMPTCP}} {
		b.Run("transport="+tr.name, func(b *testing.B) { cell(b, netsim.TCPDefaults(tr.t)) })
	}
}

// BenchmarkScenarioCache measures the durable sweep runtime end to end on
// one small matrix: cold runs simulate every cell and populate a fresh
// content-addressed cache; warm runs satisfy every cell from it. The
// cold/warm ratio is the cache's re-run speedup (the acceptance floor is
// 10×; in practice it is orders of magnitude). CI archives the pair in
// BENCH_scenario.json.
func BenchmarkScenarioCache(b *testing.B) {
	m := &scenario.Matrix{
		Name: "bench-cache",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "SF", Param: 3},
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 32 << 10},
			HorizonMs: 1000,
		},
		Axes: scenario.Axes{
			Routings:  []string{"fatpaths", "minimal"},
			FailFracs: []float64{0, 0.1},
		},
	}
	cells, _, err := m.Expand()
	if err != nil {
		b.Fatal(err)
	}
	openCache := func(b *testing.B) *scenario.Cache {
		c, err := scenario.OpenCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := openCache(b) // a fresh, empty cache every iteration
			b.StartTimer()
			if _, err := scenario.RunSpecs(cells, scenario.RunOptions{Run: exec.Run{Seed: 42}, Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := openCache(b)
		if _, err := scenario.RunSpecs(cells, scenario.RunOptions{Run: exec.Run{Seed: 42}, Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scenario.RunSpecs(cells, scenario.RunOptions{Run: exec.Run{Seed: 42}, Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSlimFlyConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topo.SlimFly(19, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorstCasePattern(b *testing.B) {
	sf, err := topo.SlimFly(7, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traffic.WorstCase(sf, 0.55, rng)
	}
}
