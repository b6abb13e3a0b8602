// Package core is the FatPaths routing architecture — the paper's primary
// contribution — assembled from its substrates: it builds routing layers
// over a topology (§V), populates per-layer forwarding functions, and wires
// them to flowlet load balancing and the purified transport (§III) for
// simulation, plus analytic entry points (layered throughput, §VI; deployed
// path diversity).
//
// A downstream user programs against Fabric:
//
//	sf, _ := topo.SlimFly(19, 0)
//	fab, _ := core.Build(sf, core.DefaultConfig(sf))
//	sim := fab.NewSimulation(netsim.NDPDefaults())
//	... add flows, sim.Run(horizon) ...
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/mcf"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// LayerScheme selects the layer-construction algorithm.
type LayerScheme int

// Layer construction schemes.
const (
	// RandomSampling is Listing 1 (random uniform edge sampling).
	RandomSampling LayerScheme = iota
	// MinInterference is Listing 2 (path-overlap minimization).
	MinInterference
	// SPAINScheme uses SPAIN's colored path forests as layers (baseline).
	SPAINScheme
	// PASTScheme uses per-address spanning trees as layers (baseline).
	PASTScheme
)

func (s LayerScheme) String() string {
	switch s {
	case RandomSampling:
		return "random"
	case MinInterference:
		return "min-interference"
	case SPAINScheme:
		return "spain"
	case PASTScheme:
		return "past"
	}
	return "unknown"
}

// Config selects the layer configuration (ρ, n) and construction scheme.
type Config struct {
	NumLayers int
	Rho       float64
	Scheme    LayerScheme
	Seed      int64
}

// DefaultConfig returns the layer configuration recommended for a topology
// (§V-B: the project repository ships (ρ, n) per network; these values
// follow the paper's findings — nine layers with ρ≈0.6 resolve collisions
// on diameter-2/3 networks, Fig 12; topologies with high minimal-path
// diversity keep ρ high).
func DefaultConfig(t *topo.Topology) Config {
	cfg := Config{NumLayers: 9, Rho: 0.6, Scheme: RandomSampling}
	switch t.Kind {
	case "HX", "FT3":
		// High minimal-path diversity: dense layers suffice (§VII-C).
		cfg.Rho = 0.9
	case "Clique":
		// D=1 collisions need many 2-hop alternatives (§VII-B3).
		cfg.NumLayers = 17
		cfg.Rho = 0.5
	}
	return cfg
}

// Fabric is a topology equipped with FatPaths layered routing. Fwd is the
// routing engine over the layer set's masks: tables materialize lazily per
// destination (BuildAll precomputes them in parallel) and are reused by
// every simulation and analysis of this fabric, including simulations
// running concurrently on different worker goroutines. Cfg.Seed drives its
// ECMP tie-breaking, so two fabrics over identical layer sets and seeds
// answer byte-identically regardless of build order or worker count.
type Fabric struct {
	Topo   *topo.Topology
	Cfg    Config
	Layers *layers.LayerSet
	Fwd    *routing.Engine
}

// Build constructs layers and forwarding tables for a topology.
func Build(t *topo.Topology, cfg Config) (*Fabric, error) {
	if cfg.NumLayers < 1 {
		return nil, fmt.Errorf("core: NumLayers=%d must be >= 1", cfg.NumLayers)
	}
	rng := graph.NewRand(cfg.Seed)
	var ls *layers.LayerSet
	var err error
	switch cfg.Scheme {
	case RandomSampling:
		ls, err = layers.Random(t.G, cfg.NumLayers, cfg.Rho, rng)
	case MinInterference:
		// Unbounded path budget but a ρ edge budget: pairs keep receiving
		// deliberately chosen +1-hop paths until the layer is as dense as
		// its random-sampling counterpart, so the two constructions differ
		// only in WHICH edges a layer carries (the §VI-C comparison).
		ls, err = layers.MinInterference(t.G, layers.MinInterferenceConfig{
			N:                cfg.NumLayers,
			ExtraHops:        1,
			MaxPathsPerLayer: t.G.N() * t.G.N(),
			Rho:              cfg.Rho,
		}, rng)
	case SPAINScheme:
		ls, err = layers.SPAIN(t.G, layers.SPAINConfig{K: 2, MaxLayers: cfg.NumLayers - 1}, rng)
	case PASTScheme:
		ls, err = layers.PAST(t.G, cfg.NumLayers, layers.PASTNonMinimal, rng)
	default:
		return nil, fmt.Errorf("core: unknown layer scheme %v", cfg.Scheme)
	}
	if err != nil {
		return nil, err
	}
	return &Fabric{
		Topo:   t,
		Cfg:    cfg,
		Layers: ls,
		Fwd:    routing.NewEngine(ls.Base, ls.Masks(), cfg.Seed),
	}, nil
}

// NewSimulation wires the fabric into a packet-level simulation. Replicate
// simulations of one fabric share its routing engine, so per-(layer,
// destination) multi-next-hop tables are computed once per fabric rather
// than once per replicate. Simulations are independent and may run
// concurrently.
func (f *Fabric) NewSimulation(cfg netsim.Config) *netsim.Sim {
	return netsim.NewSim(f.Topo, f.Fwd, cfg)
}

// Diversity summarizes the deployed path diversity of the layer set.
func (f *Fabric) Diversity(samples int, seed int64) layers.Stats {
	return layers.Summarize(f.Layers, f.Fwd, samples, graph.NewRand(seed))
}

// MAT computes the maximum achievable throughput of the fabric for a
// traffic pattern (the layered LP of §VI, approximated at accuracy eps for
// scalability; pass eps <= 0 for the exact simplex solution, feasible on
// small instances).
func (f *Fabric) MAT(p traffic.Pattern, eps float64) (float64, error) {
	comms := mcf.CommoditiesFromPattern(f.Topo, p)
	if len(comms) == 0 {
		return 0, fmt.Errorf("core: pattern has no inter-router flows")
	}
	ps := mcf.FromForwarding(f.Topo.G, f.Fwd, comms)
	if eps <= 0 {
		return mcf.PathMAT(ps)
	}
	return mcf.PathMATApprox(ps, eps)
}

// Workload describes a simulated workload: a traffic pattern, a flow-size
// sampler, and a Poisson arrival rate.
type Workload struct {
	Pattern  traffic.Pattern
	FlowSize func(*rand.Rand) int64
	// Lambda is the per-endpoint flow arrival rate in flows/s (§VII-A4);
	// each flow of the pattern starts after an exponential delay drawn at
	// this rate. 0 starts everything at t=0.
	Lambda float64
}

// Schedule adds the workload's flows to sim, drawing from rng per flow the
// exponential start delay (iff Lambda > 0) and then the size. It is the one
// place that drawing order lives, so every caller at the same seed gets the
// same flows.
func (wl Workload) Schedule(sim *netsim.Sim, rng *rand.Rand) {
	for _, fl := range wl.Pattern.Flows {
		var start netsim.Time
		if wl.Lambda > 0 {
			start = netsim.Time(traffic.ExpInterarrival(rng, wl.Lambda) * 1e9)
		}
		size := int64(1 << 20)
		if wl.FlowSize != nil {
			size = wl.FlowSize(rng)
		}
		sim.AddFlow(netsim.FlowSpec{Src: fl.Src, Dst: fl.Dst, Bytes: size, Start: start})
	}
}

// RunStencilRounds simulates a bulk-synchronous stencil: each round all
// pattern flows execute and a barrier waits for the slowest (Fig 17's
// "stencil + barrier" workload). Rounds run in separate simulations (the
// barrier drains the network between rounds), each seeded from (seed, round
// number) so that rounds differ in their flowlet and layer draws; the
// returned total is the sum over rounds of the slowest flow's completion
// time. The bool reports whether every flow of every round completed within
// the per-round horizon.
func (f *Fabric) RunStencilRounds(simCfg netsim.Config, p traffic.Pattern, flowBytes int64, rounds int, horizon netsim.Time, seed int64) (netsim.Time, bool) {
	var total netsim.Time
	ok := true
	for r := 0; r < rounds; r++ {
		//det:allow seedfold -- r is the round number, a stable coordinate of the workload (folded over the caller's seed), not an enumeration index
		simCfg.Seed = exec.FoldSeed(seed, uint64(r))
		sim := f.NewSimulation(simCfg)
		for _, fl := range p.Flows {
			sim.AddFlow(netsim.FlowSpec{Src: fl.Src, Dst: fl.Dst, Bytes: flowBytes, Start: 0})
		}
		res := sim.Run(horizon)
		var worst netsim.Time
		for _, fr := range res {
			if !fr.Done {
				ok = false
				worst = horizon
				break
			}
			if fr.FCT() > worst {
				worst = fr.FCT()
			}
		}
		total += worst
	}
	return total, ok
}
