package experiments

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// This file implements the theoretical-analysis experiments of §VI:
// Fig 9 (maximum achievable throughput of FatPaths vs SPAIN, PAST and
// k-shortest paths under the worst-case matched pattern at intensity 0.55)
// and the cost model of Fig 10.

func init() {
	register("fig9", "Maximum achievable throughput: FatPaths vs SPAIN/PAST/k-shortest (worst-case pattern, intensity 0.55)", runFig9)
	register("fig10", "Cost per endpoint breakdown (100GbE model)", runFig10)
}

// matFor computes the path-restricted MAT for one scheme on one topology
// (Fabric.MAT: eps <= 0 solves exactly). Commodities unreachable in sparse
// baseline layers fall back to the full layer's single shortest path, which
// the fabric's layer 0 always provides.
func matFor(t *topo.Topology, scheme core.LayerScheme, nLayers int, pat traffic.Pattern, seed int64, eps float64) (float64, error) {
	fab, err := core.Build(t, core.Config{NumLayers: nLayers, Rho: 0.6, Scheme: scheme, Seed: seed})
	if err != nil {
		return 0, err
	}
	return fab.MAT(pat, eps)
}

func runFig9(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	var tops []*topo.Topology
	sf, err := topo.SlimFly(pick(o, 5, 11), 0)
	if err != nil {
		return nil, err
	}
	df, err := topo.Dragonfly(pick(o, 2, 4))
	if err != nil {
		return nil, err
	}
	hx, err := topo.HyperX(3, pick(o, 4, 7), 0)
	if err != nil {
		return nil, err
	}
	xp, err := topo.Xpander(8, 8, 0, rng)
	if err != nil {
		return nil, err
	}
	ft, err := topo.FatTree3(pick(o, 4, 8), 2)
	if err != nil {
		return nil, err
	}
	sfjf, err := topo.EquivalentJellyfish(sf, rng)
	if err != nil {
		return nil, err
	}
	tops = append(tops, sf, df, hx, xp, ft, sfjf)

	nLayers := pick(o, 5, 9)
	tab := &stats.Table{
		Title:   "Fig 9: maximum achievable throughput T (worst-case pattern, intensity 0.55, equal layer counts)",
		Headers: []string{"topology", "N", "FatPaths(minPI)", "FatPaths(random)", "SPAIN", "PAST", "k-shortest"},
	}
	pats := make([]traffic.Pattern, len(tops))
	for i, t := range tops {
		pats[i] = traffic.WorstCase(t, 0.55, rng)
	}
	eps := 0.10
	if o.Quick {
		eps = 0 // small instances: exact simplex
	}
	if err := runCells(o, tab, len(tops), func(c *Cell) error {
		t := tops[c.Index]
		comms := mcf.CommoditiesFromPattern(t, pats[c.Index])
		if len(comms) == 0 {
			return nil
		}
		var mat [4]float64
		var err error
		for i, scheme := range []core.LayerScheme{core.MinInterference, core.RandomSampling, core.SPAINScheme, core.PASTScheme} {
			if mat[i], err = matFor(t, scheme, nLayers, pats[c.Index], o.Seed, eps); err != nil {
				return err
			}
		}
		// k-shortest paths: k = number of layers for resource parity.
		kspPS := mcf.FromKShortest(t.G, comms, nLayers)
		var ksp float64
		if o.Quick {
			ksp, err = mcf.PathMAT(kspPS)
		} else {
			ksp, err = mcf.PathMATApprox(kspPS, eps)
		}
		if err != nil {
			return err
		}
		c.AddRowf(t.Name, t.N(), mat[0], mat[1], mat[2], mat[3], ksp)
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

func runFig10(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	suite, err := topo.BuildSuite(sizeClass(o), rng)
	if err != nil {
		return nil, err
	}
	jf, err := topo.EquivalentJellyfish(suite.SF, rng)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 10: cost per endpoint (k$), 100GbE model",
		Headers: []string{"topology", "N", "switches", "endpoint links", "interconnect links", "total"},
	}
	all := append(suite.All(), jf)
	if err := runCells(o, tab, len(all), func(c *Cell) error {
		t := all[c.Index]
		cost := topo.Cost(t)
		c.AddRowf(t.Name, t.N(), cost.Switches, cost.EndpointLinks, cost.InterconnLinks, cost.Total())
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}
