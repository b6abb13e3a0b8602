package main

// The traced pass. Every repro/internal symbol it touches lives in this
// file, so a refactor of the layers breaks the bench in one place. Spans
// are recorded here, around the calls into each layer's public functions,
// never inside the program. Counts come from the programs' own -metrics
// and -telemetry output and from obs.Registry snapshots. No end-to-end
// metric is taken from anything in this file.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// sink keeps the results of timed loops alive.
var sink int

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeMedian runs fn reps times as spans named name and returns the median
// duration.
func timeMedian(e *env, name string, reps int, fn func()) time.Duration {
	var ds []float64
	for i := 0; i < reps; i++ {
		_, d := e.trace.do(0, name, "", func(int) { fn() })
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds))
}

// ------------------------------------------------- traced CLI passes

// parseDump reads the scalar lines of a -metrics registry dump.
func parseDump(stderr []byte) map[string]float64 {
	out := map[string]float64{}
	_, dump, _ := bytes.Cut(stderr, []byte("# metrics\n"))
	sc := bufio.NewScanner(bytes.NewReader(dump))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

// workerUtil reads a -telemetry file and returns the cell-weighted mean of
// its run_end workerUtil records.
func workerUtil(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var util, cells float64
	for _, line := range bytes.Split(b, []byte("\n")) {
		var rec struct {
			Type       string  `json:"type"`
			Cells      float64 `json:"cells"`
			WorkerUtil float64 `json:"workerUtil"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Type == "run_end" {
			util += rec.WorkerUtil * rec.Cells
			cells += rec.Cells
		}
	}
	if cells == 0 {
		return 0, nil
	}
	return util / cells, nil
}

// tracedPass is what one instrumented pass over a CLI workload yields.
type tracedPass struct {
	wall     float64                       // summed child wall, s
	counters map[string]map[string]float64 // step → last invocation's registry dump
	total    map[string]float64            // counters summed over every invocation
	stdout   map[string][]byte             // step → last invocation's stdout
}

// traceCLI re-runs a CLI workload's pass once with -metrics and -telemetry
// on, one span per child, and reports the tracing overhead against the
// untraced wall_s of the same run.
func traceCLI(e *env, o *outcome, mk func(extra ...string) []step) (tracedPass, error) {
	tel := filepath.Join(e.work, "telemetry.jsonl")
	os.Remove(tel)
	tp := tracedPass{counters: map[string]map[string]float64{}, total: map[string]float64{}, stdout: map[string][]byte{}}
	var failed error
	runPass(mk("-metrics", "-telemetry", tel), func(st step, c childRun, err error) {
		if err != nil {
			failed = fmt.Errorf("traced %s: %w", st.name, err)
			return
		}
		e.trace.add("cli."+st.name, c.start, time.Duration(c.wall*float64(time.Second)))
		tp.wall += c.wall
		tp.counters[st.name] = parseDump(c.stderr)
		for k, v := range tp.counters[st.name] {
			tp.total[k] += v
		}
		tp.stdout[st.name] = c.stdout
	})
	if failed != nil {
		return tp, failed
	}
	util, err := workerUtil(tel)
	if err != nil {
		return tp, err
	}
	o.set("exec.worker_util", util, 1)
	o.set("obs.trace_overhead_pct", 100*(tp.wall-o.untracedWall)/o.untracedWall, 1)
	return tp, nil
}

// setSimCounters copies the simulator's registry counters of a traced CLI
// pass into the per-layer list.
func setSimCounters(o *outcome, c map[string]float64, wall float64) {
	o.set("netsim.events", c[obs.MetricSimEvents], 1)
	if wall > 0 {
		o.set("netsim.events_per_s", c[obs.MetricSimEvents]/wall, 1)
	}
	o.set("netsim.drops", c[obs.MetricSimDrops], 1)
	o.set("netsim.trims", c[obs.MetricSimTrims], 1)
	o.set("netsim.retransmits", c[obs.MetricSimRetransmits], 1)
	o.set("netsim.tcp_timeouts", c[obs.MetricSimTCPTimeouts], 1)
	o.set("netsim.flowlet_reroutes", c[obs.MetricSimFlowletReroutes], 1)
	o.set("netsim.queue_highwater", c[obs.MetricSimQueueHighWater], 1)
}

// parallelMapOverhead is exec.ParallelMap's cost per item on empty work.
func parallelMapOverhead(e *env, o *outcome) {
	const items = 20000
	d := timeMedian(e, "exec.parallel_map", 5, func() {
		exec.ParallelMap(e.nproc, items, func(i int) (int, error) { return i, nil })
	})
	o.set("exec.parallel_map_overhead_us", us(d)/items, 5)
}

// ------------------------------------------------------- exp-suite

func traceExpSuite(e *env, o *outcome) error {
	tp, err := traceCLI(e, o, func(extra ...string) []step { return expSteps(e, extra...) })
	if err != nil {
		return err
	}
	setSimCounters(o, tp.total, 0)
	parallelMapOverhead(e, o)

	// The analysis layers only this workload exercises, at SF q=7.
	var sf7 *topo.Topology
	o.set("topo.build_ms", ms(timeMedian(e, "topo.build", 5, func() { sf7, err = topo.SlimFly(7, 0) })), 5)
	if err != nil {
		return err
	}
	g := sf7.G
	for _, lc := range []struct {
		metric string
		reps   int
		build  func(*rand.Rand) (*layers.LayerSet, error)
	}{
		{"layers.random_ms", 5, func(r *rand.Rand) (*layers.LayerSet, error) { return layers.Random(g, 9, 0.6, r) }},
		{"layers.mininterf_ms", 1, func(r *rand.Rand) (*layers.LayerSet, error) {
			return layers.MinInterference(g, layers.MinInterferenceConfig{N: 4, ExtraHops: 1}, r)
		}},
		{"layers.spain_ms", 3, func(r *rand.Rand) (*layers.LayerSet, error) {
			return layers.SPAIN(g, layers.SPAINConfig{K: 2, MaxLayers: 8}, r)
		}},
		{"layers.past_ms", 5, func(r *rand.Rand) (*layers.LayerSet, error) { return layers.PAST(g, 9, layers.PASTNonMinimal, r) }},
	} {
		d := timeMedian(e, strings.TrimSuffix(lc.metric, "_ms"), lc.reps, func() {
			if _, berr := lc.build(graph.NewRand(e.seed)); berr != nil {
				err = berr
			}
		})
		if err != nil {
			return fmt.Errorf("%s: %w", lc.metric, err)
		}
		o.set(lc.metric, ms(d), lc.reps)
	}

	sf5, err := topo.SlimFly(5, 0)
	if err != nil {
		return err
	}
	fab, err := core.Build(sf5, core.DefaultConfig(sf5))
	if err != nil {
		return err
	}
	pat := traffic.RandomPermutation(graph.NewRand(e.seed), sf5.N())
	d := timeMedian(e, "mcf.mat_approx", 3, func() { _, err = fab.MAT(pat, 0.12) })
	if err != nil {
		return err
	}
	o.set("mcf.mat_approx_ms", ms(d), 3)

	const pairs = 200
	sf11, err := topo.SlimFly(11, 0)
	if err != nil {
		return err
	}
	rng := graph.NewRand(e.seed)
	_, dd := e.trace.do(0, "graph.disjoint_paths", "", func(int) {
		for i := 0; i < pairs; i++ {
			s, t := graph.SampleDistinctPair(rng, sf11.Nr())
			sf11.G.DisjointPathsBounded([]int{s}, []int{t}, graph.DisjointPathsOpts{MaxLen: 3})
		}
	})
	o.set("graph.disjoint_paths_us", us(dd)/pairs, pairs)
	_, dd = e.trace.do(0, "diversity.edge_connectivity", "", func(int) {
		for i := 0; i < pairs; i++ {
			s, t := graph.SampleDistinctPair(rng, sf5.Nr())
			diversity.EdgeConnectivityBounded(sf5.G, s, t, 3, rng)
		}
	})
	o.set("diversity.edge_connectivity_us", us(dd)/pairs, pairs)
	return nil
}

// ---------------------------------------------------------- sweeps

// expandMatrix decodes the bench's matrix JSON into the engine's type and
// times Expand.
func expandMatrix(e *env, o *outcome, matrix obj) ([]scenario.Spec, error) {
	b, err := json.Marshal(matrix)
	if err != nil {
		return nil, err
	}
	var m scenario.Matrix
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	var cells []scenario.Spec
	d := timeMedian(e, "scenario.expand", 9, func() { cells, _, err = m.Expand() })
	o.set("scenario.expand_us", us(d), 9)
	return cells, err
}

// simConfig and buildPattern restate, for the axis values the bench's own
// matrices use, the mapping scenario.runCell applies (it exports neither).
func simConfig(s scenario.Spec) (netsim.Config, error) {
	var cfg netsim.Config
	switch s.Transport {
	case "", "ndp":
		cfg = netsim.NDPDefaults()
	case "tcp":
		cfg = netsim.TCPDefaults(netsim.TransportTCP)
	case "dctcp":
		cfg = netsim.TCPDefaults(netsim.TransportDCTCP)
	case "mptcp":
		cfg = netsim.TCPDefaults(netsim.TransportMPTCP)
	default:
		return cfg, fmt.Errorf("bench: transport %q", s.Transport)
	}
	lb, ok := map[string]netsim.LoadBalance{
		"": netsim.LBFatPaths, "fatpaths": netsim.LBFatPaths, "ecmp": netsim.LBECMP,
		"letflow": netsim.LBLetFlow, "minimal": netsim.LBMinimalLayer, "spray": netsim.LBPacketSpray,
	}[s.Routing]
	if !ok {
		return cfg, fmt.Errorf("bench: routing %q", s.Routing)
	}
	cfg.LB = lb
	return cfg, nil
}

func buildPattern(s scenario.Spec, t *topo.Topology, rng *rand.Rand) (traffic.Pattern, error) {
	var pat traffic.Pattern
	switch s.Pattern.Kind {
	case "uniform":
		pat = traffic.RandomUniform(rng, t.N())
	case "permutation":
		pat = traffic.RandomPermutation(rng, t.N())
	case "shuffle":
		pat = traffic.Shuffle(t.N())
	case "adversarial":
		pat = traffic.AdversarialOffDiagonal(t)
	default:
		return pat, fmt.Errorf("bench: pattern %q", s.Pattern.Kind)
	}
	if s.Pattern.Randomize {
		pat = traffic.RandomizeMapping(pat, rng)
	}
	return pat, nil
}

// cellTrace is the per-cell numbers the phase runner keeps beside spans.
type cellTrace struct {
	transport       string
	events          int64
	runNs           int64
	mallocs, bytes  uint64
	result          scenario.CellResult
	spanID, runSpan int
}

// traceCell walks one cell through the layers the way scenario.runCell
// does, one span per call: BuildTopology → BuildFabricOn → BuildAll →
// pattern → NewSimulation/AddFlow → Run → summarise → Cache.Put/Get →
// Journal.Record. shards and reg shape the simulation only.
func traceCell(e *env, s scenario.Spec, cache *scenario.Cache, journal *scenario.Journal, shards int, reg *obs.Registry) (cellTrace, error) {
	ct := cellTrace{transport: s.Transport}
	var err error
	step := func(parent int, name string, fn func()) {
		if err == nil {
			e.trace.do(parent, name, s.Key(), func(int) { fn() })
		}
	}
	ct.spanID, _ = e.trace.do(0, "cell", s.Key(), func(cell int) {
		var t *topo.Topology
		var fab *core.Fabric
		var pat traffic.Pattern
		var sim *netsim.Sim
		var frs []netsim.FlowResult
		step(cell, "topo.build", func() { t, err = scenario.BuildTopology(s, e.seed) })
		step(cell, "core.build", func() { fab, err = scenario.BuildFabricOn(s, t, e.seed, nil) })
		step(cell, "routing.build_all", func() { fab.Fwd.BuildAll(0) })
		rng := graph.NewRand(e.seed)
		step(cell, "traffic.pattern", func() { pat, err = buildPattern(s, t, rng) })
		step(cell, "netsim.setup", func() {
			var cfg netsim.Config
			if cfg, err = simConfig(s); err != nil {
				return
			}
			cfg.Shards = shards
			cfg.Metrics = obs.NewSimMetrics(reg)
			sim = fab.NewSimulation(cfg)
			if n := int(s.FailFrac * float64(t.G.M())); n > 0 {
				sim.Net.FailRandomLinks(n, rng)
			}
			size := traffic.FixedSize(s.FlowSize.Bytes)
			if s.FlowSize.Kind == "pfabric" {
				size = traffic.PFabricFlowSize
			}
			for _, fl := range pat.Flows {
				var start netsim.Time
				if s.Load > 0 {
					start = netsim.Time(traffic.ExpInterarrival(rng, s.Load) * 1e9)
				}
				sim.AddFlow(netsim.FlowSpec{Src: fl.Src, Dst: fl.Dst, Bytes: size(rng), Start: start})
			}
		})
		if err != nil {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var d time.Duration
		ct.runSpan, d = e.trace.do(cell, "netsim.run", s.Key(), func(int) { frs = sim.Run(netsim.Time(s.HorizonMs * 1e6)) })
		runtime.ReadMemStats(&m1)
		ct.events, ct.runNs = sim.Eng.Executed(), d.Nanoseconds()
		ct.mallocs, ct.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		step(cell, "stats.summarize", func() {
			var thr, fct stats.Sample
			for _, fr := range frs {
				if fr.Done {
					thr.Add(fr.ThroughputMiBs())
					fct.Add(fr.FCT().Seconds() * 1e3)
				}
			}
			ct.result = scenario.CellResult{
				Spec: s, TopoName: t.Name, TopoN: t.N(), Layers: fab.Cfg.NumLayers, Rho: fab.Cfg.Rho,
				Flows: len(frs), Completed: netsim.CompletedFraction(frs),
				Throughput: thr.Summarize(), FCT: fct.Summarize(),
				Drops: sim.Net.TotalDrops(), Trims: sim.Net.TotalTrims(),
			}
		})
		if cache != nil {
			step(cell, "scenario.cache_put", func() { _, err = cache.Put(s, e.seed, ct.result) })
			step(cell, "scenario.cache_get", func() {
				if _, _, ok := cache.Get(s, e.seed); !ok && err == nil {
					err = fmt.Errorf("cache entry just written reads as a miss")
				}
			})
		}
		if journal != nil {
			step(cell, "scenario.journal_record", func() { err = journal.Record(s, e.seed, ct.result) })
		}
	})
	if err != nil {
		return ct, fmt.Errorf("cell %s: %w", s.Key(), err)
	}
	return ct, nil
}

// sample takes at most n cells at an even stride.
func sample(cells []scenario.Spec, n int) []scenario.Spec {
	stride := (len(cells) + n - 1) / n
	var out []scenario.Spec
	for i := 0; i < len(cells); i += stride {
		out = append(out, cells[i])
	}
	return out
}

// tracePhases runs the phase runner over cells and folds its spans into
// the per-layer metrics. It returns the share of cell self time spent in
// netsim.run.
func tracePhases(e *env, o *outcome, cells []scenario.Spec, cache *scenario.Cache, journal *scenario.Journal) (float64, []scenario.CellResult, error) {
	from := e.trace.len()
	var cts []cellTrace
	var results []scenario.CellResult
	for _, s := range cells {
		ct, err := traceCell(e, s, cache, journal, 0, nil)
		if err != nil {
			return 0, nil, err
		}
		cts = append(cts, ct)
		results = append(results, ct.result)
	}
	spans := e.trace.since(from)
	dur := durations(spans)
	n := len(cells)
	for _, m := range []struct {
		metric, span string
		scale        float64
	}{
		{"topo.build_ms", "topo.build", 1}, {"core.build_ms", "core.build", 1},
		{"traffic.pattern_ms", "traffic.pattern", 1},
		{"netsim.setup_ms", "netsim.setup", 1}, {"netsim.run_ms", "netsim.run", 1},
		{"stats.summarize_us", "stats.summarize", 1e3},
		{"scenario.cache_put_us", "scenario.cache_put", 1e3}, {"scenario.cache_get_us", "scenario.cache_get", 1e3},
		{"scenario.journal_record_us", "scenario.journal_record", 1e3},
	} {
		if d := dur[m.span]; len(d) > 0 {
			o.set(m.metric, median(d)*m.scale, len(d))
		}
	}

	byTransport := map[string][2]float64{} // run ns, events
	var runNs, events, mallocs, bytesAlloc float64
	for _, ct := range cts {
		runNs += float64(ct.runNs)
		events += float64(ct.events)
		mallocs += float64(ct.mallocs)
		bytesAlloc += float64(ct.bytes)
		t := ct.transport
		if t == "" {
			t = "ndp"
		}
		acc := byTransport[t]
		byTransport[t] = [2]float64{acc[0] + float64(ct.runNs), acc[1] + float64(ct.events)}
	}
	if events > 0 {
		o.set("netsim.ns_per_event", runNs/events, n)
		o.set("netsim.allocs_per_event", mallocs/events, n)
		o.set("netsim.bytes_per_event", bytesAlloc/events, n)
	}
	for t, acc := range byTransport {
		if acc[1] > 0 {
			o.set("netsim."+t+".ns_per_event", acc[0]/acc[1], n)
		}
	}

	// A layer's self time is its span minus its children; the cell span's
	// own self time is the glue between the calls.
	self := selfByName(spans)
	var cellTotal float64
	for _, v := range self {
		cellTotal += v
	}
	o.set("scenario.cell_overhead_ms", (cellTotal-self["netsim.run"])/float64(n), n)
	return self["netsim.run"] / cellTotal, results, nil
}

// traceTables times the aggregation a sweep ends with.
func traceTables(e *env, o *outcome, results []scenario.CellResult) {
	var tab *stats.Table
	d := timeMedian(e, "scenario.table", 5, func() { tab = scenario.Table("bench", results) })
	dr := timeMedian(e, "stats.table_render", 5, func() { _ = tab.String() })
	o.set("stats.table_render_us", us(dr), 5)
	o.set("scenario.table_ms", ms(d+dr), 5)
}

// traceSweepExtras measures what the untraced sweeps never exercise but
// the ROADMAP wants a number for: lazy first-touch table builds and the
// sharded event loop at shards=2 against shards=1 on one cell.
func traceSweepExtras(e *env, o *outcome, s scenario.Spec) error {
	t, err := scenario.BuildTopology(s, e.seed)
	if err != nil {
		return err
	}
	fab, err := scenario.BuildFabricOn(s, t, e.seed, nil)
	if err != nil {
		return err
	}
	rng := graph.NewRand(e.seed)
	var first []float64
	for _, d := range rng.Perm(t.Nr())[:min(64, t.Nr())] {
		l, src := rng.Intn(fab.Fwd.NumLayers()), (d+1)%t.Nr()
		_, dur := e.trace.do(0, "routing.lazy_first_touch", "", func(int) { fab.Fwd.Next(l, src, d) })
		first = append(first, us(dur))
	}
	o.set("routing.lazy_first_touch_us", median(first), len(first))

	var runs [2]cellTrace
	reg := obs.NewRegistry()
	for i, shards := range []int{1, 2} {
		if runs[i], err = traceCell(e, s, nil, nil, shards, reg); err != nil {
			return err
		}
	}
	o.set("netsim.shards2_speedup", float64(runs[0].runNs)/float64(runs[1].runNs), 1)
	o.set("netsim.barrier_stalls", float64(reg.Snapshot()[obs.MetricSimBarrierStalls]), 1)
	return nil
}

func traceSweep(e *env, o *outcome, name string, matrix obj, spec string) error {
	tp, err := traceCLI(e, o, func(extra ...string) []step {
		return []step{{name: name, bin: e.bin("scenarios"), args: e.scenarioArgs(spec, append([]string{"-no-cache"}, extra...)...)}}
	})
	if err != nil {
		return err
	}
	setSimCounters(o, tp.total, tp.wall)
	cells, err := expandMatrix(e, o, matrix)
	if err != nil {
		return err
	}
	picked := sample(cells, 12)
	if name == "sweep-tcp" {
		// MPTCP shares tcp.go's machinery but no sweep cell uses it.
		mp := cells[0]
		mp.Transport = "mptcp"
		picked = append(picked, mp)
	}
	share, results, err := tracePhases(e, o, picked, nil, nil)
	if err != nil {
		return err
	}
	o.note("traced: netsim.run is %.1f%% of cell self time over %d cells", 100*share, len(picked))
	traceTables(e, o, results)
	parallelMapOverhead(e, o)
	return traceSweepExtras(e, o, cells[0])
}

func traceDurable(e *env, o *outcome, matrix obj, spec string) error {
	tp, err := traceCLI(e, o, func(extra ...string) []step { return durableSteps(e, spec, extra...) })
	if err != nil {
		return err
	}
	cold, warm, resume := tp.counters["cold"], tp.counters["warm"], tp.counters["resume"]
	setSimCounters(o, cold, 0)
	o.set("netsim.events_warm_resume", warm[obs.MetricSimEvents]+resume[obs.MetricSimEvents], 2)
	o.set("scenario.cache_misses", cold[obs.MetricScenarioCacheMisses], 1)
	o.set("scenario.cache_bytes_written", cold[obs.MetricScenarioCacheBytesOut], 1)
	o.set("scenario.cache_hits", warm[obs.MetricScenarioCacheHits], 1)
	o.set("scenario.cache_bytes_read", warm[obs.MetricScenarioCacheBytesIn], 1)
	o.set("scenario.cells_resumed", resume[obs.MetricScenarioCellsResumed], 1)
	o.note("traced: netsim events cold %.0f, warm %.0f, resume %.0f", cold[obs.MetricSimEvents], warm[obs.MetricSimEvents], resume[obs.MetricSimEvents])

	cells, err := expandMatrix(e, o, matrix)
	if err != nil {
		return err
	}
	// Reading back the journal the traced cold run just wrote.
	var state *scenario.JournalState
	d := timeMedian(e, "scenario.journal_read", 5, func() {
		if state, err = scenario.ReadJournal(filepath.Join(e.work, "run.journal")); err == nil {
			_, _, err = state.Match(cells, e.seed)
		}
	})
	if err != nil {
		return err
	}
	o.set("scenario.journal_read_ms", ms(d), 5)

	cache, err := scenario.OpenCache(filepath.Join(e.work, "trace-cache"))
	if err != nil {
		return err
	}
	jpath := filepath.Join(e.work, "trace.journal")
	journal, err := scenario.CreateJournal(jpath, scenario.JournalHeader{Name: "bench", Seed: e.seed, SpecHash: scenario.SpecHash(cells, e.seed), Cells: len(cells)})
	if err != nil {
		return err
	}
	share, _, err := tracePhases(e, o, sample(cells, 48), cache, journal)
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	o.note("traced: netsim.run is %.1f%% of cell self time over 48 cells", 100*share)

	var files []struct {
		Results []scenario.CellResult `json:"results"`
	}
	if err := json.Unmarshal(tp.stdout["cold"], &files); err != nil || len(files) != 1 {
		return fmt.Errorf("traced cold -json output: %v", err)
	}
	traceTables(e, o, files[0].Results)
	parallelMapOverhead(e, o)
	return nil
}

// ---------------------------------------------------------- daemon

// tracedRequests replays n requests per client with one span per request
// and returns the wall time.
func tracedRequests(e *env, h http.Handler, clients []*daemonClient, n int) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cell := "client" + strconv.Itoa(ci)
			for i := 0; i < n; i++ {
				r := c.reqs[c.pos]
				c.pos = (c.pos + 1) % len(c.reqs)
				e.trace.do(0, "serve."+r.req.URL.Path[1:], cell, func(int) { serveOne(h, c.w, r) })
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// loopbackP50 sends n requests of a client's pool over a real 127.0.0.1
// listener, for reference against the in-process numbers only.
func loopbackP50(h http.Handler, c *daemonClient, n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns once Close below runs
		close(done)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	var lat []float64
	for i := 0; i < n; i++ {
		r := c.reqs[i%len(c.reqs)]
		req, err := http.NewRequest(r.req.Method, base+r.req.URL.RequestURI(), bytes.NewReader(r.body))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		var sink bytes.Buffer
		sink.ReadFrom(resp.Body)
		resp.Body.Close()
		lat = append(lat, us(time.Since(t0)))
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("loopback %s: status %d", r.req.URL.Path, resp.StatusCode)
		}
	}
	return median(lat), nil
}

func traceDaemonSteady(e *env, o *outcome, st *daemon) error {
	h := st.srv.Handler()
	const n = 20000
	perClient := n / len(st.clients)
	untraced := st.pass(n)
	traced := tracedRequests(e, h, st.clients, perClient)
	o.set("obs.trace_overhead_pct", 100*(traced-untraced)/untraced, n)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st.clients[0].issue(h, n)
	runtime.ReadMemStats(&m1)
	o.set("serve.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/n, n)

	f := st.fabs[0]
	spec := f.spec()
	_, fab, err := st.srv.Fabrics().Get(spec, f.sel.Seed) // as a handler fetches it
	if err != nil {
		return err
	}
	const loops = 200000
	_, d := e.trace.do(0, "serve.fabric_get_hit", "", func(int) {
		for i := 0; i < loops; i++ {
			st.srv.Fabrics().Get(spec, f.sel.Seed)
		}
	})
	o.set("serve.fabric_get_hit_ns", float64(d.Nanoseconds())/loops, loops)

	// The table reads under /nexthop, on fully built tables.
	nr, nl := f.nr, f.nl
	_, d = e.trace.do(0, "routing.next", "", func(int) {
		for i := 0; i < loops; i++ {
			sink += int(fab.Fwd.Next(i%nl, (i*31)%nr, (i*17+1)%nr))
		}
	})
	o.set("routing.next_ns", float64(d.Nanoseconds())/loops, loops)
	_, d = e.trace.do(0, "routing.candidates", "", func(int) {
		for i := 0; i < loops; i++ {
			sink += len(fab.Fwd.Candidates(i%nl, (i*31)%nr, (i*17+1)%nr))
		}
	})
	o.set("routing.candidates_ns", float64(d.Nanoseconds())/loops, loops)

	// Copy-on-write derivation under /whatif: with no failed edge every
	// table is shared; with four, the tables they touch rebuild.
	o.set("routing.derive_untouched_us", us(timeMedian(e, "routing.derive_untouched", 21, func() { fab.Fwd.WithoutEdges(nil) })), 21)
	rng := graph.NewRand(e.seed)
	failed := []int{rng.Intn(f.ne), rng.Intn(f.ne), rng.Intn(f.ne), rng.Intn(f.ne)}
	built := fab.Fwd.Engine().Stat().TablesBuilt
	var invalidated int
	d = timeMedian(e, "routing.derive_touched", 3, func() {
		derived := fab.Fwd.WithoutEdges(failed)
		invalidated = built - derived.Engine().Stat().TablesBuilt
		derived.BuildAll(0)
	})
	o.set("routing.derive_touched_ms", ms(d), 3)
	o.set("routing.tables_invalidated", float64(invalidated), 1)

	if p50, err := loopbackP50(h, st.clients[0], 2000); err != nil {
		o.note("serve.loopback_p50_us not measured: %v", err)
	} else {
		o.set("serve.loopback_p50_us", p50, 2000)
	}
	return nil
}

func traceDaemonChurn(e *env, o *outcome, st *daemon) error {
	from := e.trace.len()
	// One traced cycle through the handler, a span per touch.
	h := st.srv.Handler()
	w := newRespWriter()
	_, d := e.trace.do(0, "churn.cycle", "", func(cycle int) {
		for i, f := range st.fabs {
			e.trace.do(cycle, "serve.admit", f.name, func(int) { serveOne(h, w, f.pinned[0]) })
			e.trace.do(cycle, "serve.hits", f.name, func(int) {
				for _, r := range st.hits[i] {
					serveOne(h, w, r)
				}
			})
		}
	})
	o.set("obs.trace_overhead_pct", 100*(d.Seconds()-o.untracedWall)/o.untracedWall, 1)

	// Admission decomposed: the three calls FabricCache.Get makes on a
	// miss, per fabric, with all cores and then with one.
	reg := obs.NewRegistry()
	var tables, entries int
	var allocated uint64
	for _, workers := range []int{0, 1} {
		for _, f := range st.fabs {
			spec := f.spec()
			var t *topo.Topology
			var fab *core.Fabric
			var err error
			name := "serve.admit_tables"
			if workers == 1 {
				name = "routing.build_all_serial"
			}
			e.trace.do(0, "admit", f.name, func(admit int) {
				e.trace.do(admit, "serve.admit_topo", f.name, func(int) { t, err = scenario.BuildTopology(spec, f.sel.Seed) })
				if err != nil {
					return
				}
				e.trace.do(admit, "serve.admit_layers", f.name, func(int) { fab, err = scenario.BuildFabricOn(spec, t, f.sel.Seed, reg) })
				if err != nil {
					return
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				e.trace.do(admit, name, f.name, func(int) { fab.Fwd.BuildAll(workers) })
				runtime.ReadMemStats(&m1)
				if workers == 0 {
					stat := fab.Fwd.Engine().Stat()
					tables += stat.TablesBuilt
					entries += int(stat.CandEntries)
					allocated += m1.TotalAlloc - m0.TotalAlloc
				}
			})
			if err != nil {
				return fmt.Errorf("admitting %s offline: %w", f.name, err)
			}
		}
	}
	dur := durations(e.trace.since(from))
	n := len(st.fabs)
	par, ser := dur["serve.admit_tables"], dur["routing.build_all_serial"]
	o.set("serve.admit_topo_ms", median(dur["serve.admit_topo"]), 2*n)
	o.set("serve.admit_layers_ms", median(dur["serve.admit_layers"]), 2*n)
	o.set("serve.admit_tables_ms", median(par), n)
	o.set("topo.build_ms", median(dur["serve.admit_topo"]), 2*n)
	o.set("core.build_ms", median(dur["serve.admit_layers"]), 2*n)
	o.set("routing.build_all_ms", median(par), n)
	o.set("routing.build_all_serial_ms", median(ser), n)
	o.set("routing.parallel_speedup", sum(ser)/sum(par), n)
	o.set("routing.tables_per_s", float64(tables)/(sum(par)/1e3), n)
	o.set("routing.tables_built", float64(tables), n)
	o.set("routing.cand_entries", float64(entries), n)
	o.set("routing.bytes_per_table", float64(allocated)/float64(tables), n)
	o.set("routing.stripe_lock_contention", float64(reg.Snapshot()[obs.MetricRoutingStripeContend]), 1)
	if admit, ok := o.vals["admit_p50_ms"]; ok {
		o.note("traced: routing.build_all_ms is %.1f%% of admit_p50_ms", 100*median(par)/admit.Value)
	}

	// Single flight: eight concurrent first requests for one fabric must
	// cost one build.
	sreg := obs.NewRegistry()
	srv := serve.New(serve.Config{MaxFabrics: 4}, sreg)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveOne(srv.Handler(), newRespWriter(), st.fabs[0].nexthop(0, 0, 1))
		}()
	}
	wg.Wait()
	o.set("serve.singleflight_builds", float64(sreg.Snapshot()[obs.MetricServeFabricMisses]), 8)
	return nil
}
