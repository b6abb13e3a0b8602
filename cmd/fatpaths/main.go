// Command fatpaths builds a FatPaths fabric over a chosen topology and
// reports its deployed configuration: layer sizes, exposed path diversity,
// per-layer reachability, total network load, and equipment cost. The
// fabric is scenario.BuildFabric's: at a given -seed, the one cmd/scenarios
// cells simulate and cmd/fatpathsd serves for the same axes.
//
// Usage:
//
//	go run ./cmd/fatpaths -topo SF -size small -layers 9 -rho 0.6
//	go run ./cmd/fatpaths -topo DF -size medium -scheme min-interference
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/diversity"
	"repro/internal/layers"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/topo"
)

func main() {
	var (
		kind     = flag.String("topo", "SF", "topology: SF, DF, HX, XP, FT3, JF, Clique")
		size     = flag.String("size", "small", "size class: small (N≈200-1000) or medium (N≈10k)")
		n        = flag.Int("layers", 9, "number of layers (0: the topology's default)")
		rho      = flag.Float64("rho", 0.6, "fraction of edges per sparsified layer (0: the topology's default)")
		scheme   = flag.String("scheme", "random", "layer construction: random, min-interference, spain, past")
		seed     = flag.Int64("seed", 1, "random seed")
		deadlock = flag.Bool("deadlock", false, "run the channel-dependency (lossless deployment) analysis per layer")
		startObs = obs.BindFlags(flag.CommandLine)
	)
	flag.Parse()

	sinks, stopObs, err := startObs()
	if err != nil {
		fatal(err)
	}

	t, fab, err := scenario.BuildFabric(scenario.Spec{
		Topology:     scenario.Topology{Kind: *kind, Class: *size},
		Layers:       *n,
		Rho:          *rho,
		Construction: *scheme,
	}, *seed, sinks.Obs)
	if err != nil {
		fatal(err)
	}

	d, mean := t.G.DiameterAndMean()
	fmt.Printf("topology   %s\n", t.Name)
	fmt.Printf("routers    %d, endpoints %d, links %d\n", t.Nr(), t.N(), t.G.M())
	fmt.Printf("radix k'   %d, diameter %d, mean distance %.3f\n", t.NominalRadix, d, mean)
	fmt.Printf("TNL bound  %.0f concurrent flows\n", diversity.TNL(t.NominalRadix, t.Nr(), mean))
	cost := topo.Default100GbE().Cost(t)
	fmt.Printf("cost       %s\n\n", cost)

	fmt.Printf("layers (%s, n=%d, rho=%.2f):\n", fab.Cfg.Scheme, fab.Cfg.NumLayers, fab.Cfg.Rho)
	for i, l := range fab.Layers.Layers {
		frac := float64(l.EdgeCount) / float64(t.G.M())
		fmt.Printf("  layer %2d: %5d edges (%.0f%%)\n", i, l.EdgeCount, 100*frac)
	}
	st := fab.Diversity(500, *seed)
	fmt.Printf("\nmean distinct (first-hop, length) routes per router pair: %.2f\n", st.MeanDistinctPaths)
	fmt.Printf("mean within-layer minimal routes per router pair (all layers): %.2f\n", st.MeanMinimalRoutes)

	sz := layers.SizeTables(t, fab.Layers.N())
	fmt.Printf("forwarding state/router: %d prefix entries (flat would need %d, %.1fx more)\n",
		sz.PrefixEntries, sz.FlatEntries, sz.Compression)
	// The dense single-next-hop builder the tables replaced held one entry
	// per (layer, dst, src): TablesTotal · Nr.
	dep := fab.Fwd.Stat()
	fmt.Printf("routing tables materialized: %d/%d (layer,dst) tables, %d candidate entries in %d bytes (dense builder: %d entries)\n",
		dep.TablesBuilt, dep.TablesTotal, dep.CandEntries, dep.Bytes, int64(dep.TablesTotal)*int64(t.Nr()))

	if *deadlock {
		fmt.Println("\nchannel-dependency analysis (lossless deployments, §VIII-A6):")
		for _, rep := range layers.AnalyzeAllLayers(fab.Fwd, fab.Layers) {
			fmt.Printf("  layer %2d: %4d channels, %5d dependencies, acyclic=%v\n",
				rep.Layer, rep.Channels, rep.Dependencies, rep.Acyclic)
		}
	}
	if err := stopObs(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fatpaths:", err)
	os.Exit(1)
}
