package experiments

import (
	"fmt"

	"repro/internal/diversity"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// This file implements the path-diversity experiments of §IV:
// Fig 4 (collision histograms), Fig 6 (minimal path distributions),
// Fig 7 (non-minimal disjoint path distributions), Fig 8 (path
// interference), Table IV (CDP/PI at d'), Table V (topology parameters)
// and Fig 19 (edge density / radix scaling).

func init() {
	register("fig4", "Histogram of colliding paths per router pair (5 patterns; SF, DF, clique)", runFig4)
	register("fig6", "Distributions of lengths and counts of shortest paths", runFig6)
	register("fig7", "Distribution of non-minimal disjoint path counts c_l(A,B)", runFig7)
	register("fig8", "Distribution of path interference at l=2..5", runFig8)
	register("tab4", "CDP and PI at distance d' (Table IV)", runTable4)
	register("tab5", "Topology parameter table (Table V)", runTable5)
	register("fig19", "Edge density and radix vs network size", runFig19)
}

func runFig4(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	var tops []*topo.Topology
	sf, err := topo.SlimFly(pick(o, 7, 19), 0)
	if err != nil {
		return nil, err
	}
	df, err := topo.Dragonfly(pick(o, 3, 7))
	if err != nil {
		return nil, err
	}
	cl, err := topo.Complete(pick(o, 31, 100), 0)
	if err != nil {
		return nil, err
	}
	tops = append(tops, cl, sf, df)

	tab := &stats.Table{
		Title:   "Fig 4: path collisions per router pair (p = k'/D)",
		Headers: []string{"topology", "pattern", "pairs", "max", "frac>=4", "frac>=9"},
	}
	type cell struct {
		t   *topo.Topology
		pat traffic.Pattern
	}
	var cells []cell
	for _, t := range tops {
		n := t.N()
		for _, p := range []traffic.Pattern{
			traffic.RandomPermutation(rng, n),
			traffic.RandomizeMapping(traffic.OffDiagonal(n, n/3+1), rng),
			traffic.RandomizeMapping(traffic.Shuffle(n), rng),
			traffic.KRandomPermutations(rng, n, 4),
			traffic.RandomizeMapping(traffic.DefaultStencil(n), rng),
		} {
			cells = append(cells, cell{t, p})
		}
	}
	if err := runCells(o, tab, len(cells), func(c *Cell) error {
		cl := cells[c.Index]
		h := diversity.Collisions(cl.t, cl.pat)
		_, max := diversity.CollisionTakeaway(h)
		c.AddRowf(cl.t.Kind, cl.pat.Name, h.Total, max,
			fmtPct(h.FractionAtLeast(4)), fmtPct(h.FractionAtLeast(9)))
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig6(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := topo.BuildSuite(sizeClass(o), rng)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 6: shortest path length (lmin) and diversity (cmin) distributions",
		Headers: []string{"topology", "lmin=1", "lmin=2", "lmin=3", "lmin=4", "cmin=1", "cmin=2", "cmin=3", "cmin>3"},
	}
	// Row order interleaves each base topology with its equivalent
	// Jellyfish; the JFs are constructed in the serial prologue so every
	// cell only samples.
	var tops []*topo.Topology
	for _, t := range suite.All() {
		jf, err := topo.EquivalentJellyfish(t, rng)
		if err != nil {
			return nil, err
		}
		tops = append(tops, t, jf)
	}
	samples := pick(o, 400, 2000)
	if err := runCells(o, tab, len(tops), func(c *Cell) error {
		t := tops[c.Index]
		mp := diversity.MinimalPaths(t.G, samples, c.Rng)
		c.AddRowf(t.Name,
			fmtPct(mp.LenHist.Fraction(1)), fmtPct(mp.LenHist.Fraction(2)),
			fmtPct(mp.LenHist.Fraction(3)), fmtPct(mp.LenHist.Fraction(4)),
			fmtPct(mp.CountHist.Fraction(1)), fmtPct(mp.CountHist.Fraction(2)),
			fmtPct(mp.CountHist.Fraction(3)), fmtPct(mp.CountHist.Fraction(4)))
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig7(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := topo.BuildSuite(sizeClass(o), rng)
	if err != nil {
		return nil, err
	}
	sfjf, err := topo.EquivalentJellyfish(suite.SF, rng)
	if err != nil {
		return nil, err
	}
	tops := []*topo.Topology{suite.DF, suite.HX, suite.SF, sfjf}
	tab := &stats.Table{
		Title:   "Fig 7: counts of disjoint non-minimal paths c_l(A,B) over sampled pairs",
		Headers: []string{"topology", "l", "mean", "p1", "p50", "p99"},
	}
	samples := pick(o, 150, 600)
	if err := runCells(o, tab, len(tops), func(c *Cell) error {
		t := tops[c.Index]
		hists := diversity.CDPDistribution(t.G, []int{2, 3, 4}, samples, c.Rng)
		for _, l := range []int{2, 3, 4} {
			h := hists[l]
			var sm stats.Sample
			for _, k := range h.Keys() {
				for i := int64(0); i < h.Counts[k]; i++ {
					sm.Add(float64(k))
				}
			}
			c.AddRowf(t.Name, l, h.Mean(), sm.Percentile(0.01), sm.Percentile(0.5), sm.Percentile(0.99))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig8(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := topo.BuildSuite(sizeClass(o), rng)
	if err != nil {
		return nil, err
	}
	sfjf, _ := topo.EquivalentJellyfish(suite.SF, rng)
	dfjf, _ := topo.EquivalentJellyfish(suite.DF, rng)
	hxjf, _ := topo.EquivalentJellyfish(suite.HX, rng)
	tops := []*topo.Topology{suite.DF, dfjf, suite.FT, suite.HX, hxjf, suite.SF, sfjf}
	tab := &stats.Table{
		Title:   "Fig 8: path interference I^l over sampled router quadruples",
		Headers: []string{"topology", "l", "mean", "p99", "p99.9"},
	}
	samples := pick(o, 100, 500)
	ls := []int{2, 3, 4, 5}
	if err := runCells(o, tab, len(tops)*len(ls), func(c *Cell) error {
		t := tops[c.Index/len(ls)]
		l := ls[c.Index%len(ls)]
		pi := diversity.PathInterference(t.G, t.NominalRadix, l, samples, c.Rng)
		c.AddRowf(t.Name, l, pi.Raw.Mean(), pi.Raw.Percentile(0.99), pi.Raw.Percentile(0.999))
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runTable4(o Options) (*stats.Table, error) {
	tab := &stats.Table{
		Title:   "Table IV: CDP (fraction of k') and PI at distance d'",
		Headers: []string{"topology", "d'", "k'", "Nr", "N", "CDP mean", "CDP 1%", "PI mean", "PI 99.9%"},
	}
	// Table IV's rows at the run's size class: quick mode stands in the
	// small class with the same d' per family.
	configs := []struct {
		name, kind string
		dPrim      int // the distance d' at which CDP and PI are evaluated
	}{{"clique", "Clique", 2}, {"SF", "SF", 3}, {"XP", "XP", 3}, {"HX", "HX", 3}, {"DF", "DF", 4}, {"FT3", "FT3", 4}}
	samples := pick(o, 120, 400)
	piSamples := pick(o, 80, 300)
	if err := runCells(o, tab, len(configs), func(cc *Cell) error {
		c := configs[cc.Index]
		t, err := topo.Family(c.kind, sizeClass(o), cc.Rng)
		if err != nil {
			return err
		}
		// Sample only endpoint-hosting routers: traffic never originates at
		// a fat tree's aggregation or core switches, and the paper's FT3
		// row (CDP 100%, PI 0) is an edge-to-edge statement.
		pool := diversity.HostRouters(t)
		if len(pool) == t.Nr() {
			pool = nil
		}
		cdp := diversity.CDPAmong(t.G, pool, t.NominalRadix, c.dPrim, samples, cc.Rng)
		pi := diversity.PathInterferenceAmong(t.G, pool, t.NominalRadix, c.dPrim, piSamples, cc.Rng)
		cc.AddRowf(c.name, c.dPrim, t.NominalRadix, t.Nr(), t.N(),
			fmtPct(cdp.Mean), fmtPct(cdp.Tail1Pct), fmtPct(pi.Mean), fmtPct(pi.Tail999Pct))
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runTable5(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := topo.BuildSuite(sizeClass(o), rng)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Table V: topology parameters",
		Headers: []string{"topology", "Nr", "N", "k'", "p(avg)", "D", "M(links)"},
	}
	all := suite.All()
	cl, _ := topo.Complete(pick(o, 31, 100), 0)
	jf, err := topo.EquivalentJellyfish(suite.SF, rng)
	if err != nil {
		return nil, err
	}
	all = append(all, cl, jf)
	if err := runCells(o, tab, len(all), func(c *Cell) error {
		t := all[c.Index]
		d := t.Diameter
		if d < 0 {
			d, _ = t.G.DiameterAndMean()
		}
		c.AddRowf(t.Name, t.Nr(), t.N(), t.NominalRadix,
			fmt.Sprintf("%.1f", t.MeanConcentration()), d, t.G.M())
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig19(o Options) (*stats.Table, error) {
	tab := &stats.Table{
		Title:   "Fig 19: edge density and total radix vs N",
		Headers: []string{"topology", "N", "edge density", "radix k"},
	}
	qs := []int{5, 7, 11, 13}
	dfs := []int{2, 3, 4}
	ms := []int{4, 6, 8}
	ss := []int{4, 5, 6}
	if !o.Quick {
		qs = append(qs, 17, 19, 23, 29)
		dfs = append(dfs, 6, 8)
		ms = append(ms, 12, 18)
		ss = append(ss, 8, 11)
	}
	type cell struct {
		kind  string
		param int
	}
	var cells []cell
	for _, q := range qs {
		cells = append(cells, cell{"SF", q})
	}
	for _, p := range dfs {
		cells = append(cells, cell{"DF", p})
	}
	for _, m := range ms {
		cells = append(cells, cell{"FT", m})
	}
	for _, s := range ss {
		cells = append(cells, cell{"HX3", s})
	}
	if err := runCells(o, tab, len(cells), func(c *Cell) error {
		cl := cells[c.Index]
		var (
			t   *topo.Topology
			err error
		)
		switch cl.kind {
		case "SF":
			t, err = topo.SlimFly(cl.param, 0)
		case "DF":
			t, err = topo.Dragonfly(cl.param)
		case "FT":
			t, err = topo.FatTree3(cl.param, 1)
		case "HX3":
			t, err = topo.HyperX(3, cl.param, 0)
		}
		if err != nil {
			return err
		}
		c.AddRowf(cl.kind, t.N(), t.EdgeDensity(), t.TotalRadix())
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

// pick selects by scale.
func pick(o Options, quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

func sizeClass(o Options) topo.SizeClass {
	if o.Quick {
		return topo.Small
	}
	return topo.Medium
}
