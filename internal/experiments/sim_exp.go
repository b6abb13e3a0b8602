package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
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
// fig2, fig11, fig13 and the three ablations are declarative scenario
// matrices (internal/scenario): the runner states the swept axes and skip
// constraints, the engine expands, seeds, and executes the cells over the
// parallel runtime, and the runner only reformats CellResults into the
// figure's table shape. The remaining runners enumerate cells by hand (they
// embed per-cell baselines or model predictions the matrix form does not
// express) and fan out via runCells with the same seed-folding discipline.

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

// simSuite returns the per-figure topology set at quick or full scale.
func simSuite(o Options, rng *rand.Rand) (map[string]*topo.Topology, error) {
	out := map[string]*topo.Topology{}
	var err error
	add := func(k string, t *topo.Topology, e error) {
		if err == nil && e != nil {
			err = e
		}
		out[k] = t
	}
	if o.Quick {
		sf, e := topo.SlimFly(5, 0)
		add("SF", sf, e)
		df, e := topo.Dragonfly(3)
		add("DF", df, e)
		hx, e := topo.HyperX(3, 4, 0)
		add("HX", hx, e)
		xp, e := topo.Xpander(8, 8, 0, rng)
		add("XP", xp, e)
		ft, e := topo.FatTree3(4, 2)
		add("FT", ft, e)
	} else {
		sf, e := topo.SlimFly(11, 0)
		add("SF", sf, e)
		df, e := topo.Dragonfly(4)
		add("DF", df, e)
		hx, e := topo.HyperX(3, 7, 0)
		add("HX", hx, e)
		xp, e := topo.Xpander(16, 16, 0, rng)
		add("XP", xp, e)
		ft, e := topo.FatTree3(8, 2)
		add("FT", ft, e)
	}
	if err != nil {
		return nil, err
	}
	jf, e := topo.EquivalentJellyfish(out["SF"], rng)
	if e != nil {
		return nil, e
	}
	out["JF"] = jf
	return out, nil
}

// scenTopo maps a simSuite family tag onto the scenario topology spec of
// the same size at the current scale.
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
	return scenario.RunSpecs(cells, scenario.RunOptions{Run: o.Run, CacheDir: o.CacheDir})
}

// runSeries simulates one (fabric, config, pattern, size) combination. The
// pattern is validated first: a malformed pattern aborts the experiment
// with a useful error instead of simulating garbage. The run's tracer (if
// any) is offered to every series; the first simulation wins it.
func runSeries(o Options, fab *core.Fabric, cfg netsim.Config, pat traffic.Pattern, size int64, lambda float64, horizon netsim.Time, seed int64) ([]netsim.FlowResult, error) {
	if err := pat.ValidateFlows(); err != nil {
		return nil, err
	}
	cfg.Tracer = o.Tracer
	wl := core.Workload{Pattern: pat, FlowSize: traffic.FixedSize(size), Lambda: lambda}
	return fab.RunWorkload(cfg, wl, horizon, seed), nil
}

func flowSizes(o Options) []int64 {
	if o.Quick {
		return []int64{32 << 10, 256 << 10, 2 << 20}
	}
	return []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20}
}

func scenSizes(o Options) []scenario.FlowSize {
	var out []scenario.FlowSize
	for _, b := range flowSizes(o) {
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
			FlowSizes:  scenSizes(o),
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
		Axes: scenario.Axes{FlowSizes: scenSizes(o)},
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
			FlowSizes:  scenSizes(o),
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
	rng := graph.NewRand(o.Seed)
	sf, err := topo.SlimFly(pick(o, 5, 11), 0)
	if err != nil {
		return nil, err
	}
	df, err := topo.Dragonfly(pick(o, 3, 4))
	if err != nil {
		return nil, err
	}
	cl, err := topo.Complete(pick(o, 15, 40), 0)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 12: effect of n and rho on 1MiB-flow FCT [ms] (NDP mode)",
		Headers: []string{"topology", "n", "rho", "mean", "p10", "p99", "completed"},
	}
	ns := []int{2, 5, 9}
	rhos := []float64{0.5, 0.7, 0.8}
	if !o.Quick {
		ns = []int{2, 5, 9, 17, 33}
	}
	horizon := 10 * netsim.Second
	type cell struct {
		t       *topo.Topology
		pat     traffic.Pattern
		n       int
		rho     float64
		simSeed int64
	}
	var cells []cell
	for ti, t := range []*topo.Topology{cl, sf, df} {
		// The whole (n, rho) sweep of one topology compares FCT on the same
		// workload: pattern and sim seed are shared across its cells.
		pat := traffic.RandomizeMapping(traffic.RandomPermutation(rng, t.N()), rng)
		simSeed := sharedSeed(o, uint64(ti))
		for _, n := range ns {
			for _, rho := range rhos {
				cells = append(cells, cell{t, pat, n, rho, simSeed})
			}
		}
	}
	if err := runCells(o, tab, len(cells), func(c *Cell) error {
		cl := cells[c.Index]
		fab, err := core.Build(cl.t, o.coreCfg(cl.n, cl.rho))
		if err != nil {
			return err
		}
		res, err := runSeries(o, fab, netsim.NDPDefaults(), cl.pat, 1<<20, 300, horizon, cl.simSeed)
		if err != nil {
			return err
		}
		fct := netsim.SummarizeFCT(res)
		c.AddRowf(cl.t.Kind, cl.n, cl.rho, fct.Mean, fct.P10, fct.P99, fmtPct(netsim.CompletedFraction(res)))
		return nil
	}); err != nil {
		return nil, err
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

// tcpSeriesConfig returns the four Fig 14 series: ECMP, LetFlow,
// FatPaths(rho=0.6), FatPaths(rho=1), all with n=4 layers (§VII-C).
type tcpSeries struct {
	name   string
	lb     netsim.LoadBalance
	layers int
	rho    float64
}

func tcpSeriesSet() []tcpSeries {
	return []tcpSeries{
		{"ECMP", netsim.LBECMP, 1, 1},
		{"LetFlow", netsim.LBLetFlow, 1, 1},
		{"FatPaths(0.6)", netsim.LBFatPaths, 4, 0.6},
		{"FatPaths(1.0)", netsim.LBFatPaths, 4, 1.0},
	}
}

func runFig14(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := simSuite(o, rng)
	if err != nil {
		return nil, err
	}
	sizes := []int64{20e3, 200e3, 2e6}
	tab := &stats.Table{
		Title:   "Fig 14: TCP — speedup over ECMP (mean and 99% tail of FCT)",
		Headers: []string{"topology", "flow KB", "series", "mean FCT ms", "p99 ms", "speedup mean", "speedup p99"},
	}
	horizon := 12 * netsim.Second
	names := []string{"DF", "FT", "HX", "JF", "SF", "XP"}
	// One cell per (topology, size): the ECMP baseline the speedup columns
	// divide by lives in the same cell as the series compared against it.
	if err := runCells(o, tab, len(names)*len(sizes), func(c *Cell) error {
		name := names[c.Index/len(sizes)]
		size := sizes[c.Index%len(sizes)]
		t := suite[name]
		pat := traffic.AdversarialOffDiagonal(t)
		var base stats.Summary
		for _, s := range tcpSeriesSet() {
			fab, err := core.Build(t, o.coreCfg(s.layers, s.rho))
			if err != nil {
				return err
			}
			cfg := netsim.TCPDefaults(netsim.TransportTCP)
			cfg.LB = s.lb
			// Synchronized starts: at this scaled-down N, Poisson
			// staggering would dissolve the path collisions the figure
			// studies (the paper's N≈10k runs have enough concurrent
			// flows for lambda=200 to keep collisions persistent).
			res, err := runSeries(o, fab, cfg, pat, size, 0, horizon, c.Seed)
			if err != nil {
				return err
			}
			fct := netsim.SummarizeFCT(res)
			if s.name == "ECMP" {
				base = fct
			}
			spMean, spTail := 0.0, 0.0
			if fct.Mean > 0 {
				spMean = base.Mean / fct.Mean
			}
			if fct.P99 > 0 {
				spTail = base.P99 / fct.P99
			}
			c.AddRowf(name, size/1000, s.name, fct.Mean, fct.P99, spMean, spTail)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig15(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	sf, err := topo.SlimFly(pick(o, 5, 11), 0)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 15: 1MiB-flow FCT distribution on SF (TCP)",
		Headers: []string{"series", "p10 ms", "p50 ms", "p90 ms", "p99 ms", "mean ms"},
	}
	lambda := 200.0
	horizon := 12 * netsim.Second
	pat := traffic.RandomizeMapping(traffic.RandomPermutation(rng, sf.N()), rng)
	// Both simulated series face the identical Poisson arrival process.
	simSeed := sharedSeed(o, 0)
	series := []tcpSeries{
		{"FatPaths(TCP)", netsim.LBFatPaths, 4, 0.6},
		{"ECMP", netsim.LBECMP, 1, 1},
	}
	// Cell 0 is the M/M/1-PS queueing-model prediction at the access link;
	// cells 1.. are the simulated series.
	if err := runCells(o, tab, 1+len(series), func(c *Cell) error {
		if c.Index == 0 {
			model := QueueModelSample(c.Rng, 4000, 1<<20, 10e9, lambda, 20*netsim.Microsecond)
			c.AddRowf("queueing model", model.P10, model.P50, model.P90, model.P99, model.Mean)
			return nil
		}
		s := series[c.Index-1]
		fab, err := core.Build(sf, o.coreCfg(s.layers, s.rho))
		if err != nil {
			return err
		}
		cfg := netsim.TCPDefaults(netsim.TransportTCP)
		cfg.LB = s.lb
		res, err := runSeries(o, fab, cfg, pat, 1<<20, lambda, horizon, simSeed)
		if err != nil {
			return err
		}
		fct := netsim.SummarizeFCT(res)
		c.AddRowf(s.name, fct.P10, fct.P50, fct.P90, fct.P99, fct.Mean)
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig16(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := simSuite(o, rng)
	if err != nil {
		return nil, err
	}
	rhos := []float64{0.5, 0.7, 0.9, 1.0}
	if !o.Quick {
		rhos = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	tab := &stats.Table{
		Title:   "Fig 16: impact of rho on 1MiB-flow FCT (TCP, n=4)",
		Headers: []string{"topology", "rho", "mean ms", "p10 ms", "p99 ms"},
	}
	horizon := 12 * netsim.Second
	names := []string{"DF", "JF", "HX", "SF", "XP"}
	if err := runCells(o, tab, len(names)*len(rhos), func(c *Cell) error {
		ti := c.Index / len(rhos)
		name := names[ti]
		rho := rhos[c.Index%len(rhos)]
		t := suite[name]
		pat := traffic.AdversarialOffDiagonal(t)
		fab, err := core.Build(t, o.coreCfg(4, rho))
		if err != nil {
			return err
		}
		cfg := netsim.TCPDefaults(netsim.TransportTCP)
		// The rho sweep of one topology compares against the same workload.
		res, err := runSeries(o, fab, cfg, pat, 1<<20, 200, horizon, sharedSeed(o, uint64(ti)))
		if err != nil {
			return err
		}
		fct := netsim.SummarizeFCT(res)
		c.AddRowf(name, rho, fct.Mean, fct.P10, fct.P99)
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig17(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := simSuite(o, rng)
	if err != nil {
		return nil, err
	}
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
	pats := make([]traffic.Pattern, len(names))
	for i, name := range names {
		pats[i] = traffic.RandomizeMapping(traffic.DefaultStencil(suite[name].N()), rng)
	}
	// One cell per (topology, size); the series loop stays inside so the
	// ECMP total the speedups divide by is computed alongside.
	if err := runCells(o, tab, len(names)*len(sizes), func(c *Cell) error {
		ti := c.Index / len(sizes)
		name := names[ti]
		size := sizes[c.Index%len(sizes)]
		t := suite[name]
		var base netsim.Time
		for _, s := range tcpSeriesSet() {
			fab, err := core.Build(t, o.coreCfg(s.layers, s.rho))
			if err != nil {
				return err
			}
			cfg := netsim.TCPDefaults(netsim.TransportTCP)
			cfg.LB = s.lb
			total, _ := fab.RunStencilRounds(cfg, pats[ti], size, rounds, 6*netsim.Second, c.Seed)
			if s.name == "ECMP" {
				base = total
			}
			sp := 0.0
			if total > 0 {
				sp = float64(base) / float64(total)
			}
			c.AddRowf(name, size/1000, s.name, total.Seconds()*1e3, sp)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig20(o Options) (*stats.Table, error) {
	n := pick(o, 24, 60)
	st, err := topo.Star(n)
	if err != nil {
		return nil, err
	}
	fab, err := core.Build(st, o.coreCfg(1, 1))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 20: 2MB-flow FCT vs arrival rate on a crossbar (TCP)",
		Headers: []string{"lambda", "p10 ms", "mean ms", "p90 ms", "completed"},
	}
	rng := graph.NewRand(o.Seed)
	lambdas := []float64{100, 250, 500, 800}
	pats := make([]traffic.Pattern, len(lambdas))
	for i := range lambdas {
		pats[i] = traffic.RandomUniform(rng, n)
	}
	if err := runCells(o, tab, len(lambdas), func(c *Cell) error {
		cfg := netsim.TCPDefaults(netsim.TransportTCP)
		cfg.LB = netsim.LBMinimalLayer
		res, err := runSeries(o, fab, cfg, pats[c.Index], 2e6, lambdas[c.Index], 10*netsim.Second, c.Seed)
		if err != nil {
			return err
		}
		fct := netsim.SummarizeFCT(res)
		c.AddRowf(lambdas[c.Index], fct.P10, fct.Mean, fct.P90, fmtPct(netsim.CompletedFraction(res)))
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig21(o Options) (*stats.Table, error) {
	n := pick(o, 24, 128)
	st, err := topo.Star(n)
	if err != nil {
		return nil, err
	}
	m := pick(o, 3, 6)
	ft, err := topo.FatTree3(m, 2)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 21: influence of lambda on baseline NDP (per-packet spray)",
		Headers: []string{"topology", "lambda", "FCT p10 ms", "mean ms", "p99 ms", "completed"},
	}
	rng := graph.NewRand(o.Seed)
	lambdas := []float64{100, 300, 500}
	type cell struct {
		fab *core.Fabric
		pat traffic.Pattern
		l   float64
	}
	var cells []cell
	for _, t := range []*topo.Topology{st, ft} {
		fab, err := core.Build(t, o.coreCfg(1, 1))
		if err != nil {
			return nil, err
		}
		for _, lambda := range lambdas {
			cells = append(cells, cell{fab, traffic.RandomUniform(rng, t.N()), lambda})
		}
	}
	if err := runCells(o, tab, len(cells), func(c *Cell) error {
		cl := cells[c.Index]
		cfg := netsim.NDPDefaults()
		cfg.LB = netsim.LBPacketSpray
		res, err := runSeries(o, cl.fab, cfg, cl.pat, 256<<10, cl.l, 10*netsim.Second, c.Seed)
		if err != nil {
			return err
		}
		fct := netsim.SummarizeFCT(res)
		c.AddRowf(cl.fab.Topo.Kind, cl.l, fct.P10, fct.Mean, fct.P99, fmtPct(netsim.CompletedFraction(res)))
		return nil
	}); err != nil {
		return nil, err
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
