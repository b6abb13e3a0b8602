package lp_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// fig9XPSPAIN rebuilds the largest program `cmd/experiments -run fig9`
// solves at the goldens' seed 42: the Xpander row's SPAIN cell (505 rows,
// 838 columns before this package dropped the artificial ones). The draws
// from rng repeat runFig9's, in its order, up to the Xpander's pattern.
func fig9XPSPAIN(b *testing.B) *lp.Problem {
	b.Helper()
	rng := graph.NewRand(42)
	sf, _ := topo.SlimFly(5, 0)
	df, _ := topo.Dragonfly(2)
	hx, _ := topo.HyperX(3, 4, 0)
	xp, err := topo.Xpander(8, 8, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := topo.EquivalentJellyfish(sf, rng); err != nil {
		b.Fatal(err)
	}
	for _, t := range []*topo.Topology{sf, df, hx} {
		traffic.WorstCase(t, 0.55, rng)
	}
	comms := mcf.CommoditiesFromPattern(xp, traffic.WorstCase(xp, 0.55, rng))
	fab, err := core.Build(xp, core.Config{NumLayers: 5, Rho: 0.6, Scheme: core.SPAINScheme, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	p, err := mcf.PathLP(mcf.FromForwarding(xp.G, fab.Fwd, comms))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkLPPathMAT is the MAT path's ledger line: one exact solve of
// fig9's worst program, with the pivot count beside ns/op (4 398 pivots
// under Bland's rule throughout, PERF.md fourth section).
func BenchmarkLPPathMAT(b *testing.B) {
	p := fig9XPSPAIN(b)
	b.ReportAllocs()
	b.ResetTimer()
	pivots := 0
	for i := 0; i < b.N; i++ {
		obj, n, err := lp.SolvePivots(p)
		if err != nil {
			b.Fatal(err)
		}
		if got := fmt.Sprintf("%.4g", obj); got != "0.4022" {
			b.Fatalf("T=%s, want fig9.golden's XP / SPAIN cell 0.4022", got)
		}
		pivots += n
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}
