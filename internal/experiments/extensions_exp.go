package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Extension experiments beyond the paper's numbered figures: the §V-G
// fault-tolerance behaviour, the §VIII-A2 MPTCP transport, and the §V-D/E
// forwarding-state sizing analysis.

func init() {
	register("ext-failures", "Resilience: completion and FCT vs failed links (FatPaths vs single-path)", runExtFailures)
	register("ext-mptcp", "MPTCP transport (LIA-coupled subflows over layers) vs flowlet FatPaths (TCP)", runExtMPTCP)
	register("ext-tables", "Forwarding table sizing: flat vs prefix matching (SS V-D/E)", runExtTables)
}

func runExtFailures(o Options) (*stats.Table, error) {
	ss := []series{
		{"FatPaths(9 layers)", "fatpaths", 9, 0.6},
		{"single minimal path", "minimal", 1, 1},
	}
	fracs := []float64{0, 0.02, 0.05, 0.10}
	// Flow endpoints and the failed-link set of a fraction fold from keys
	// that leave the series out, so the same failures hit both series. The
	// uniform pattern is thinned to ≈60 (quick) / ≈200 (full) flows.
	intensity := 0.3
	if !o.Quick {
		intensity = 0.09
	}
	results, err := runMatrices(o, seriesMatrices("ext-failures", scenario.Spec{
		Topology:  scenTopo(o, "SF"),
		Pattern:   scenario.Pattern{Kind: "uniform", Intensity: intensity},
		FlowSize:  scenario.FlowSize{Bytes: 64 << 10},
		HorizonMs: 3000,
	}, scenario.Axes{FailFracs: fracs}, ss)...)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Resilience under link failures (NDP transport, 64KiB flows)",
		Headers: []string{"series", "failed links", "completed", "mean FCT ms", "p99 ms"},
	}
	for i, r := range results {
		tab.AddRowf(ss[i/len(fracs)].name, r.FailedLinks, fmtPct(r.Completed), r.FCT.Mean, r.FCT.P99)
	}
	return tab, nil
}

// runExtMPTCP runs one workload under two transports: plain TCP with
// flowlet FatPaths, and native MPTCP, whose LIA-coupled subflows each own
// one layer (§VIII-A2).
func runExtMPTCP(o Options) (*stats.Table, error) {
	results, err := runMatrices(o, &scenario.Matrix{
		Name: "ext-mptcp",
		Base: scenario.Spec{
			Topology:  scenTopo(o, "SF"),
			Layers:    4,
			Rho:       0.6,
			Pattern:   scenario.Pattern{Kind: "adversarial"},
			FlowSize:  scenario.FlowSize{Bytes: 512 << 10},
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{Transports: []string{"tcp", "mptcp"}},
	})
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "MPTCP subflow striping vs flowlet FatPaths (512KiB messages, TCP)",
		Headers: []string{"series", "mean FCT ms", "p99 ms", "completed"},
	}
	for i, name := range []string{"flowlet FatPaths", "MPTCP transport (LIA)"} {
		r := results[i]
		tab.AddRowf(name, r.FCT.Mean, r.FCT.P99, fmtPct(r.Completed))
	}
	return tab, nil
}

func runExtTables(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	tab := &stats.Table{
		Title:   "Forwarding state per router: flat exact match vs prefix match vs deployed CSR tables",
		Headers: []string{"topology", "N", "Nr", "layers", "flat entries", "prefix entries", "compression", "fits VLANs", "CSR entries", "tables built"},
	}
	suite, err := topo.BuildSuite(sizeClass(o), rng)
	if err != nil {
		return nil, err
	}
	tops := suite.All()
	// The final cell is the paper's worked example: SF with N=10830, Nr=722.
	if err := runCells(o, tab, len(tops)+1, func(c *Cell) error {
		t := tops[0]
		name := ""
		if c.Index < len(tops) {
			t = tops[c.Index]
			name = t.Name
		} else {
			sf19, err := topo.SlimFly(19, 15)
			if err != nil {
				return err
			}
			t = sf19
			name = sf19.Name + " (paper example)"
		}
		sz := layers.SizeTables(t, 9)
		// Measure the routing state a real deployment materializes: the
		// shared multi-next-hop tables (internal/routing) build lazily per
		// destination, so a workload routing to a handful of destination
		// routers occupies a sliver of the dense n·Nr² footprint even at
		// the paper-example scale.
		fab, err := core.Build(t, core.Config{NumLayers: sz.Layers, Rho: 0.6, Seed: o.Seed})
		if err != nil {
			return err
		}
		fab.Fwd.SetMetrics(obs.NewRoutingMetrics(o.Obs))
		dsts := 8
		if dsts > t.Nr() {
			dsts = t.Nr()
		}
		for _, d := range c.Rng.Perm(t.Nr())[:dsts] {
			for l := 0; l < fab.Fwd.NumLayers(); l++ {
				fab.Fwd.Hops(l, 0, d)
			}
		}
		dep := fab.Fwd.Stat()
		c.AddRowf(name, t.N(), t.Nr(), sz.Layers, sz.FlatEntries, sz.PrefixEntries,
			sz.Compression, sz.FitsVLANs, dep.CandEntries,
			fmt.Sprintf("%d/%d", dep.TablesBuilt, dep.TablesTotal))
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}
