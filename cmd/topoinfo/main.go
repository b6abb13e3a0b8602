// Command topoinfo prints structural and path-diversity properties of a
// topology: the Table V parameters, the Fig 6 minimal-path distributions,
// and radix-normalized CDP/PI samples (Table IV format).
//
// Usage:
//
//	go run ./cmd/topoinfo -topo SF -size small
//	go run ./cmd/topoinfo -topo HX -size medium -samples 500
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/diversity"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	var (
		kind              = flag.String("topo", "SF", "topology: SF, DF, HX, XP, FT3, JF, Clique")
		size              = flag.String("size", "small", "size class: small or medium")
		samples           = flag.Int("samples", 300, "sampled router pairs for CDP/PI")
		seed              = flag.Int64("seed", scenario.DefaultSeed, "random seed")
		startObs, stopObs = obs.BindFlags(flag.CommandLine, "topoinfo")
	)
	flag.Parse()

	if _, err := startObs(); err != nil {
		os.Exit(stopObs(err))
	}
	t, err := scenario.BuildTopology(scenario.Spec{Topology: scenario.Topology{Kind: *kind, Class: *size}}, *seed)
	if err != nil {
		os.Exit(stopObs(err))
	}
	rng := graph.NewRand(*seed)
	d, mean := t.G.DiameterAndMean()
	fmt.Printf("%s: Nr=%d N=%d k'=%d M=%d D=%d d=%.3f density=%.2f\n\n",
		t.Name, t.Nr(), t.N(), t.NominalRadix, t.G.M(), d, mean, t.EdgeDensity())

	mp := diversity.MinimalPaths(t.G, *samples, rng)
	fmt.Println("minimal paths (Fig 6):")
	fmt.Printf("  lmin:  1:%5.1f%%  2:%5.1f%%  3:%5.1f%%  4:%5.1f%%\n",
		100*mp.LenHist.Fraction(1), 100*mp.LenHist.Fraction(2),
		100*mp.LenHist.Fraction(3), 100*mp.LenHist.Fraction(4))
	fmt.Printf("  cmin:  1:%5.1f%%  2:%5.1f%%  3:%5.1f%%  >3:%5.1f%%\n",
		100*mp.CountHist.Fraction(1), 100*mp.CountHist.Fraction(2),
		100*mp.CountHist.Fraction(3), 100*mp.CountHist.Fraction(4))
	fmt.Printf("  single-minimal-path pairs: %.1f%% (shortest paths fall short)\n\n",
		100*mp.SingleMinimalFrac)

	dPrim := d + 1
	cdp := diversity.CDP(t.G, t.NominalRadix, dPrim, *samples, rng)
	pi := diversity.PathInterference(t.G, t.NominalRadix, dPrim, *samples/2, rng)
	fmt.Printf("at d'=%d (Table IV format, fractions of k'):\n", dPrim)
	fmt.Printf("  CDP mean %.0f%%, 1%% tail %.0f%%\n", 100*cdp.Mean, 100*cdp.Tail1Pct)
	fmt.Printf("  PI  mean %.0f%%, 99.9%% tail %.0f%%\n", 100*pi.Mean, 100*pi.Tail999Pct)

	os.Exit(stopObs(nil))
}
