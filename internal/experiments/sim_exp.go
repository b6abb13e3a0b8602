package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// This file implements the packet-level simulation experiments of §VII and
// Appendix D: Fig 2 (randomized workload throughput), Fig 11 (skewed
// adversarial), Fig 12 (n/ρ sweep, htsim mode), Fig 13 (largest feasible
// networks), Fig 14 (TCP: FatPaths vs ECMP vs LetFlow), Fig 15 (FCT
// distribution vs queueing model), Fig 16 (ρ sweep, TCP), Fig 17 (stencil +
// barrier), Fig 20/21 (λ calibration on crossbar/fat tree), plus the
// transport/construction/randomization ablations (see README.md's
// experiment table).
//
// Every ID here but fig17 is a declarative scenario matrix
// (internal/scenario): the runner states the swept axes and skip
// constraints, the engine expands, seeds, caches and executes the cells over
// the parallel runtime, and the runner only reformats CellResults into the
// figure's table shape. One simulation ID is not a matrix, because Spec
// cannot state its workload: fig17 (barrier-separated stencil rounds,
// below). It takes topology, fabric and simulator configuration from the
// scenario layer (scenTopo + handSim) and fans its own cells out via
// runCells.

func init() {
	register("fig2", "Throughput/flow vs flow size: low-diameter+FatPaths vs FT+NDP (randomized workload)", runFig2)
	register("fig11", "Skewed adversarial traffic: FatPaths vs minimal NDP baseline", runFig11)
	register("fig12", "Effect of layer count n and sparsity rho on long-flow FCT (htsim mode)", runFig12)
	register("fig13", "Larger networks: SF vs SF-JF vs DF throughput and FCT tails", runFig13)
	register("fig14", "TCP: FatPaths (rho=0.6, rho=1) vs ECMP vs LetFlow", runFig14)
	register("fig15", "Long-flow FCT distribution on SF: queueing model vs FatPaths vs ECMP", runFig15)
	register("fig16", "Impact of rho on long-flow FCT (TCP, n=4)", runFig16)
	register("fig17", "Stencil+barrier completion time speedups (TCP)", runFig17)
	register("fig20", "Long-flow FCT vs arrival rate on a crossbar (TCP)", runFig20)
	register("fig21", "Influence of lambda on baseline NDP: crossbar vs fat tree", runFig21)
	register("abl-transport", "Ablation: purified transport vs TCP tail-drop on identical layers", runAblTransport)
	register("abl-construction", "Ablation: random vs min-interference layer construction", runAblConstruction)
	register("abl-randomization", "Ablation: workload randomization on vs off", runAblRandomization)
}

// scenTopo is the one statement of the simulation suite: it maps a family
// tag onto the scenario topology spec of that family at the current scale.
func scenTopo(o Options, kind string) scenario.Topology {
	switch kind {
	case "SF":
		return scenario.Topology{Kind: "SF", Param: pick(o, 5, 11)}
	case "JF":
		return scenario.Topology{Kind: "JF", Param: pick(o, 5, 11)}
	case "DF":
		return scenario.Topology{Kind: "DF", Param: pick(o, 3, 4)}
	case "HX":
		return scenario.Topology{Kind: "HX", Param: pick(o, 4, 7)}
	case "XP":
		return scenario.Topology{Kind: "XP", Param: pick(o, 8, 16)}
	case "FT":
		return scenario.Topology{Kind: "FT3", Param: pick(o, 4, 8)}
	}
	panic("unknown suite kind " + kind)
}

func scenTopos(o Options, kinds ...string) []scenario.Topology {
	out := make([]scenario.Topology, len(kinds))
	for i, k := range kinds {
		out[i] = scenTopo(o, k)
	}
	return out
}

// runMatrices expands the given matrices, concatenates their cells in
// order, and executes everything as one batch under the experiment's run
// context.
func runMatrices(o Options, ms ...*scenario.Matrix) ([]scenario.CellResult, error) {
	var cells []scenario.Spec
	for _, m := range ms {
		cs, _, err := m.Expand()
		if err != nil {
			return nil, err
		}
		cells = append(cells, cs...)
	}
	return scenario.RunSpecs(cells, scenario.RunOptions{Run: o.Run, Cache: o.Cache})
}

func flowSizes(o Options) []int64 {
	if o.Quick {
		return []int64{32 << 10, 256 << 10, 2 << 20}
	}
	return []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20}
}

func scenSizes(bytes []int64) []scenario.FlowSize {
	var out []scenario.FlowSize
	for _, b := range bytes {
		out = append(out, scenario.FlowSize{Bytes: b})
	}
	return out
}

func runFig2(o Options) (*stats.Table, error) {
	// Low-diameter topologies run FatPaths; the fat tree runs the plain NDP
	// design (per-packet spraying over minimal paths, no layers). Both
	// matrices share the randomized-uniform workload axes.
	base := scenario.Spec{
		Pattern:   scenario.Pattern{Kind: "uniform", Randomize: true},
		Load:      300,
		HorizonMs: 8000,
	}
	lowDiam := &scenario.Matrix{
		Name: "fig2-fatpaths",
		Base: base,
		Axes: scenario.Axes{
			Topologies: scenTopos(o, "SF", "XP", "HX", "DF"),
			FlowSizes:  scenSizes(flowSizes(o)),
		},
	}
	ftBase := base
	ftBase.Topology = scenTopo(o, "FT")
	ftBase.Routing = "spray"
	ftBase.Layers = 1
	ftBase.Rho = 1
	ft := &scenario.Matrix{
		Name: "fig2-ndp-ft",
		Base: ftBase,
		Axes: scenario.Axes{FlowSizes: scenSizes(flowSizes(o))},
	}
	results, err := runMatrices(o, lowDiam, ft)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 2: throughput per flow [MiB/s], randomized workload, NDP-style transport",
		Headers: []string{"topology", "scheme", "flow KiB", "mean", "1% tail", "completed"},
	}
	for _, r := range results {
		scheme := "FatPaths"
		if r.Spec.Routing == "spray" {
			scheme = "NDP"
		}
		tab.AddRowf(r.TopoName, scheme, r.Spec.FlowSize.Bytes>>10,
			r.Throughput.Mean, r.Throughput.P01, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig11(o Options) (*stats.Table, error) {
	// One matrix over (topology × scheme × size). The two schemes need
	// different layer configurations, so the layers/rho axes carry both and
	// skip constraints cut the cross product down to the two real series:
	// FatPaths at the topology default (layers=0, rho=0) and the minimal
	// NDP baseline on a single dense layer (layers=1, rho=1).
	m := &scenario.Matrix{
		Name: "fig11",
		Base: scenario.Spec{
			Pattern:   scenario.Pattern{Kind: "adversarial"},
			Load:      300,
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: scenTopos(o, "SF", "XP", "HX", "DF", "FT"),
			Routings:   []string{"fatpaths", "spray"},
			Layers:     []int{0, 1},
			Rhos:       []float64{0, 1},
			FlowSizes:  scenSizes(flowSizes(o)),
		},
		Skip: []scenario.Constraint{
			{When: map[string]string{"routing": "fatpaths", "layers": "1"}},
			{When: map[string]string{"routing": "fatpaths", "rho": "1"}},
			{When: map[string]string{"routing": "spray", "layers": "0"}},
			{When: map[string]string{"routing": "spray", "rho": "0"}},
		},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 11: skewed adversarial (non-randomized) traffic, NDP-style transport",
		Headers: []string{"topology", "scheme", "flow KiB", "mean MiB/s", "1% tail", "completed"},
	}
	for _, r := range results {
		scheme := "FatPaths"
		if r.Spec.Routing == "spray" {
			scheme = "NDP-minimal"
		}
		tab.AddRowf(r.TopoName, scheme, r.Spec.FlowSize.Bytes>>10,
			r.Throughput.Mean, r.Throughput.P01, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig12(o Options) (*stats.Table, error) {
	ns := []int{2, 5, 9}
	if !o.Quick {
		ns = []int{2, 5, 9, 17, 33}
	}
	// The whole (n, rho) sweep of one topology compares FCT on the same
	// workload: the cells agree on every workload-defining axis.
	m := &scenario.Matrix{
		Name: "fig12",
		Base: scenario.Spec{
			Pattern:   scenario.Pattern{Kind: "permutation", Randomize: true},
			Load:      300,
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: []scenario.Topology{
				{Kind: "Clique", Param: pick(o, 15, 40)},
				scenTopo(o, "SF"),
				scenTopo(o, "DF"),
			},
			Layers: ns,
			Rhos:   []float64{0.5, 0.7, 0.8},
		},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 12: effect of n and rho on 1MiB-flow FCT [ms] (NDP mode)",
		Headers: []string{"topology", "n", "rho", "mean", "p10", "p99", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Topology.Kind, r.Spec.Layers, r.Spec.Rho, r.FCT.Mean, r.FCT.P10, r.FCT.P99, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig13(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "fig13",
		Base: scenario.Spec{
			Pattern:   scenario.Pattern{Kind: "uniform", Randomize: true},
			FlowSize:  scenario.FlowSize{Bytes: 1 << 20},
			Load:      300,
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: []scenario.Topology{
				{Kind: "SF", Param: pick(o, 7, 13)},
				{Kind: "JF", Param: pick(o, 7, 13)},
				{Kind: "DF", Param: pick(o, 3, 5)},
			},
		},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 13: larger networks, 1MiB flows (NDP mode)",
		Headers: []string{"topology", "N", "mean MiB/s", "FCT p50 ms", "FCT p99 ms", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.TopoName, r.TopoN, r.Throughput.Mean, r.FCT.P50, r.FCT.P99, fmtPct(r.Completed))
	}
	return tab, nil
}

// series is one compared routing configuration of a figure: its row label
// and the scheme, layer count and sparsity it writes into a spec.
type series struct {
	name    string
	routing string
	layers  int
	rho     float64
}

func (s series) on(base scenario.Spec) scenario.Spec {
	base.Routing, base.Layers, base.Rho = s.routing, s.layers, s.rho
	return base
}

// seriesMatrices sweeps axes once per series — one matrix each, in series
// order, so the batch's results are series-major.
func seriesMatrices(name string, base scenario.Spec, axes scenario.Axes, ss []series) []*scenario.Matrix {
	ms := make([]*scenario.Matrix, len(ss))
	for i, s := range ss {
		ms[i] = &scenario.Matrix{Name: name + "-" + s.name, Base: s.on(base), Axes: axes}
	}
	return ms
}

// tcpSeriesSet returns the four Fig 14 series: ECMP, LetFlow,
// FatPaths(rho=0.6), FatPaths(rho=1), the latter two with n=4 layers
// (§VII-C). ECMP comes first: the speedup columns divide by it.
func tcpSeriesSet() []series {
	return []series{
		{"ECMP", "ecmp", 1, 1},
		{"LetFlow", "letflow", 1, 1},
		{"FatPaths(0.6)", "fatpaths", 4, 0.6},
		{"FatPaths(1.0)", "fatpaths", 4, 1.0},
	}
}

func runFig14(o Options) (*stats.Table, error) {
	names := []string{"DF", "FT", "HX", "JF", "SF", "XP"}
	sizes := []int64{20e3, 200e3, 2e6}
	ss := tcpSeriesSet()
	// Synchronized starts (load 0): at this scaled-down N, Poisson
	// staggering would dissolve the path collisions the figure studies (the
	// paper's N≈10k runs have enough concurrent flows for lambda=200 to
	// keep collisions persistent).
	results, err := runMatrices(o, seriesMatrices("fig14", scenario.Spec{
		Transport: "tcp",
		Pattern:   scenario.Pattern{Kind: "adversarial"},
		HorizonMs: 12000,
	}, scenario.Axes{Topologies: scenTopos(o, names...), FlowSizes: scenSizes(sizes)}, ss)...)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 14: TCP — speedup over ECMP (mean and 99% tail of FCT)",
		Headers: []string{"topology", "flow KB", "series", "mean FCT ms", "p99 ms", "speedup mean", "speedup p99"},
	}
	// Rows group the series of one (topology, size) together, below the
	// ECMP cell their speedup columns divide by.
	perSeries := len(names) * len(sizes)
	for ti, name := range names {
		for zi, size := range sizes {
			var base stats.Summary
			for si, s := range ss {
				fct := results[si*perSeries+ti*len(sizes)+zi].FCT
				if si == 0 {
					base = fct
				}
				spMean, spTail := 0.0, 0.0
				if fct.Mean > 0 {
					spMean = base.Mean / fct.Mean
				}
				if fct.P99 > 0 {
					spTail = base.P99 / fct.P99
				}
				tab.AddRowf(name, size/1000, s.name, fct.Mean, fct.P99, spMean, spTail)
			}
		}
	}
	return tab, nil
}

func runFig15(o Options) (*stats.Table, error) {
	lambda := 200.0
	ss := []series{
		{"FatPaths(TCP)", "fatpaths", 4, 0.6},
		{"ECMP", "ecmp", 1, 1},
	}
	// Both simulated series face the identical Poisson arrival process.
	results, err := runMatrices(o, seriesMatrices("fig15", scenario.Spec{
		Topology:  scenTopo(o, "SF"),
		Transport: "tcp",
		Pattern:   scenario.Pattern{Kind: "permutation", Randomize: true},
		Load:      lambda,
		HorizonMs: 12000,
	}, scenario.Axes{}, ss)...)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 15: 1MiB-flow FCT distribution on SF (TCP)",
		Headers: []string{"series", "p10 ms", "p50 ms", "p90 ms", "p99 ms", "mean ms"},
	}
	// The first row is the M/M/1-PS queueing-model prediction at the access
	// link; it simulates nothing, so it is no cell.
	model := QueueModelSample(graph.NewRand(exec.FoldSeed(o.Seed, 0)), 4000, 1<<20, lambda, 20*netsim.Microsecond)
	tab.AddRowf("queueing model", model.P10, model.P50, model.P90, model.P99, model.Mean)
	for i, r := range results {
		tab.AddRowf(ss[i].name, r.FCT.P10, r.FCT.P50, r.FCT.P90, r.FCT.P99, r.FCT.Mean)
	}
	return tab, nil
}

func runFig16(o Options) (*stats.Table, error) {
	rhos := []float64{0.5, 0.7, 0.9, 1.0}
	if !o.Quick {
		rhos = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	// The rho sweep of one topology compares against the same workload.
	m := &scenario.Matrix{
		Name: "fig16",
		Base: scenario.Spec{
			Layers:    4,
			Transport: "tcp",
			Pattern:   scenario.Pattern{Kind: "adversarial"},
			Load:      200,
			HorizonMs: 12000,
		},
		Axes: scenario.Axes{
			Topologies: scenTopos(o, "DF", "JF", "HX", "SF", "XP"),
			Rhos:       rhos,
		},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 16: impact of rho on 1MiB-flow FCT (TCP, n=4)",
		Headers: []string{"topology", "rho", "mean ms", "p10 ms", "p99 ms"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Topology.Kind, r.Spec.Rho, r.FCT.Mean, r.FCT.P10, r.FCT.P99)
	}
	return tab, nil
}

// handSim is what the hand-rolled fig17 runner takes from the scenario
// layer for one spec: the fabric over t and the simulator configuration,
// exactly as a matrix cell of that spec would get them. The pattern is
// validated first: a malformed pattern aborts the experiment with a useful
// error instead of simulating garbage. The tracer is a cell's, not a
// configuration's: the runner sets Tracer from CellTracer inside its cells.
func handSim(o Options, s scenario.Spec, t *topo.Topology, pat traffic.Pattern) (*core.Fabric, netsim.Config, error) {
	if err := pat.ValidateFlows(); err != nil {
		return nil, netsim.Config{}, err
	}
	cfg, err := scenario.SimConfig(s)
	if err != nil {
		return nil, netsim.Config{}, err
	}
	cfg.Metrics = obs.NewSimMetrics(o.Obs)
	fab, err := scenario.BuildFabricOn(s, t, o.Seed, o.Obs)
	return fab, cfg, err
}

// runFig17 is no scenario matrix: its workload is rounds of one stencil
// with a barrier between them — every round a fresh simulation, the figure
// the sum over rounds of the slowest flow — and Spec has no axis for rounds
// nor CellResult a field for a barrier total. It takes topologies, fabrics
// and simulator configurations from the scenario layer and keeps its own
// cell loop.
func runFig17(o Options) (*stats.Table, error) { return fig17(o, 6*netsim.Second) }

// fig17 runs Fig 17 with each stencil round bounded by horizon. A round
// that leaves a flow unfinished fails the ID: its total would be the
// horizon, not a completion time.
func fig17(o Options, horizon netsim.Time) (*stats.Table, error) {
	sizes := []int64{20e3, 200e3}
	if !o.Quick {
		sizes = append(sizes, 2e6)
	}
	rounds := pick(o, 3, 5)
	tab := &stats.Table{
		Title:   "Fig 17: stencil+barrier completion time, speedup over ECMP (TCP)",
		Headers: []string{"topology", "flow KB", "series", "total ms", "speedup"},
	}
	names := []string{"DF", "FT", "HX", "JF", "SF", "XP"}
	ss := tcpSeriesSet()
	rng := graph.NewRand(o.Seed)
	pats := make([]traffic.Pattern, len(names))
	fabs := make([][]*core.Fabric, len(names))
	cfgs := make([]netsim.Config, len(ss)) // a series' configuration is the same on every topology
	for ti, name := range names {
		base := scenario.Spec{Topology: scenTopo(o, name), Transport: "tcp"}
		t, err := scenario.BuildTopology(base, o.Seed)
		if err != nil {
			return nil, err
		}
		pats[ti] = traffic.RandomizeMapping(traffic.DefaultStencil(t.N()), rng)
		fabs[ti] = make([]*core.Fabric, len(ss))
		for si, s := range ss {
			if fabs[ti][si], cfgs[si], err = handSim(o, s.on(base), t, pats[ti]); err != nil {
				return nil, err
			}
		}
	}
	// One cell per (topology, size); the series loop stays inside so the
	// ECMP total the speedups divide by is computed alongside.
	if err := runCells(o, tab, len(names)*len(sizes), func(c *Cell) error {
		ti := c.Index / len(sizes)
		size := sizes[c.Index%len(sizes)]
		var base netsim.Time
		for si, s := range ss {
			cfg := cfgs[si]
			cfg.Tracer = o.CellTracer(c.Index)
			total, ok := fabs[ti][si].RunStencilRounds(cfg, pats[ti], size, rounds, horizon, c.Seed)
			if !ok {
				return fmt.Errorf("fig17: %s %d KB %s: a stencil round left flows unfinished at the %g s horizon",
					names[ti], size/1000, s.name, horizon.Seconds())
			}
			if si == 0 {
				base = total
			}
			sp := 0.0
			if total > 0 {
				sp = float64(base) / float64(total)
			}
			c.AddRowf(names[ti], size/1000, s.name, total.Seconds()*1e3, sp)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig20(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "fig20",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "Star", Param: pick(o, 24, 60)},
			Layers:    1,
			Rho:       1,
			Routing:   "minimal",
			Transport: "tcp",
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 2e6},
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{Loads: []float64{100, 250, 500, 800}},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 20: 2MB-flow FCT vs arrival rate on a crossbar (TCP)",
		Headers: []string{"lambda", "p10 ms", "mean ms", "p90 ms", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Load, r.FCT.P10, r.FCT.Mean, r.FCT.P90, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig21(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "fig21",
		Base: scenario.Spec{
			Layers:    1,
			Rho:       1,
			Routing:   "spray",
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 256 << 10},
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: []scenario.Topology{
				{Kind: "Star", Param: pick(o, 24, 128)},
				{Kind: "FT3", Param: pick(o, 3, 6)},
			},
			Loads: []float64{100, 300, 500},
		},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 21: influence of lambda on baseline NDP (per-packet spray)",
		Headers: []string{"topology", "lambda", "FCT p10 ms", "mean ms", "p99 ms", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Topology.Kind, r.Spec.Load, r.FCT.P10, r.FCT.Mean, r.FCT.P99, fmtPct(r.Completed))
	}
	return tab, nil
}

func runAblTransport(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "abl-transport",
		Base: scenario.Spec{
			Topology:  scenTopo(o, "SF"),
			Pattern:   scenario.Pattern{Kind: "adversarial"},
			FlowSize:  scenario.FlowSize{Bytes: 512 << 10},
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{Transports: []string{"ndp", "tcp"}},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Ablation: purified (NDP-style) transport vs TCP tail-drop, identical layers",
		Headers: []string{"transport", "mean FCT ms", "p99 ms", "drops", "trims"},
	}
	for _, r := range results {
		label := "tcp"
		if r.Spec.Transport == "ndp" {
			label = "purified"
		}
		tab.AddRowf(label, r.FCT.Mean, r.FCT.P99, r.Drops, r.Trims)
	}
	return tab, nil
}

func runAblConstruction(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "abl-construction",
		Base: scenario.Spec{
			Topology:  scenTopo(o, "SF"),
			Layers:    5,
			Rho:       0.6,
			Pattern:   scenario.Pattern{Kind: "worst-case", Intensity: 0.55},
			FlowSize:  scenario.FlowSize{Bytes: 256 << 10},
			HorizonMs: 8000,
			MAT:       true,
		},
		Axes: scenario.Axes{Constructions: []string{"random", "min-interference"}},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Ablation: layer construction scheme (MAT on worst-case pattern + sim FCT)",
		Headers: []string{"scheme", "MAT T", "sim mean FCT ms"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Construction, r.MAT, r.FCT.Mean)
	}
	return tab, nil
}

func runAblRandomization(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "abl-randomization",
		Base: scenario.Spec{
			Topology:  scenTopo(o, "SF"),
			FlowSize:  scenario.FlowSize{Bytes: 512 << 10},
			HorizonMs: 8000,
		},
		Axes: scenario.Axes{Patterns: []scenario.Pattern{
			{Kind: "adversarial"},
			{Kind: "adversarial", Randomize: true},
		}},
	}
	results, err := runMatrices(o, m)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Ablation: randomized workload mapping (§III-D)",
		Headers: []string{"mapping", "mean MiB/s", "p99 FCT ms"},
	}
	for _, r := range results {
		mapping := "skewed"
		if r.Spec.Pattern.Randomize {
			mapping = "randomized"
		}
		tab.AddRowf(mapping, r.Throughput.Mean, r.FCT.P99)
	}
	return tab, nil
}
