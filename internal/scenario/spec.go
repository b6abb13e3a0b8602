// Package scenario is the declarative workload layer of the evaluation
// harness. A Spec names one simulated cell of the paper's cross-product —
// topology × routing layers × routing scheme × transport × traffic pattern
// × flow-size distribution × load level × failure model — and a Matrix
// sweeps lists per axis (with skip constraints) into concrete cells. Cells
// run over the parallel experiment runtime (internal/exec) with the
// established seed-folding discipline: every random choice derives from a
// seed folded out of the run seed and the canonical key of the resource it
// belongs to, so results are byte-identical for any worker count, any cell
// order, and any matrix slicing. Cells that agree on the workload-defining
// axes (topology, pattern, flow size, load) automatically face the
// identical workload, the discipline the paper's sweep figures rely on.
//
// Specs round-trip through JSON; cmd/scenarios runs spec files from disk
// (examples under examples/scenarios/), and every simulation experiment
// but fig17 is a matrix over this package.
package scenario

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Topology selects a topology family, either at a named size class
// ("small", "medium" — the classes of topo.BuildSuite) or at an explicit
// family-specific size parameter.
type Topology struct {
	// Kind is the family tag: SF, DF, HX, XP, FT3 (alias FT), JF, Clique,
	// Star.
	Kind string `json:"kind"`
	// Class selects a topo.SizeClass when Param is 0: "small" (default) or
	// "medium". It must be empty when Param is set.
	Class string `json:"class,omitempty"`
	// Param, when positive, sizes the family directly instead of Class:
	// SF/JF q, DF p, HX S, XP k', FT3 m, Clique k', Star n.
	Param int `json:"param,omitempty"`
	// Param2 is the secondary parameter used with Param: SF/JF p (0 = paper
	// default), HX L (0 = 3), XP lift (0 = Param), FT3 o (0 = 2),
	// Clique p (0 = k'). DF and Star take none.
	Param2 int `json:"param2,omitempty"`
}

// key is the canonical identity of the topology spec; equal keys mean
// identical built topologies at a fixed run seed.
func (ts Topology) key() string { return string(ts.appendKey(nil)) }

// appendKey appends key to b. The identity strings of this package are
// appended into one buffer with strconv, never assembled by fmt: a warm
// or resumed cell renders its identity several times.
func (ts Topology) appendKey(b []byte) []byte {
	b = append(append(b, ts.kind()...), '/')
	b = append(append(b, ts.class()...), '/')
	b = append(strconv.AppendInt(b, int64(ts.Param), 10), '/')
	return strconv.AppendInt(b, int64(ts.Param2), 10)
}

// kind resolves the FT alias, so that FT and FT3 specs are one topology
// with one key: one fabric, one cache identity, one set of folded seeds.
func (ts Topology) kind() string {
	if ts.Kind == "FT" {
		return "FT3"
	}
	return ts.Kind
}

func (ts Topology) class() string {
	if ts.Class == "" {
		return "small"
	}
	return ts.Class
}

func (ts Topology) sizeClass() (topo.SizeClass, error) {
	class, err := topo.ParseSizeClass(ts.class())
	if err != nil {
		return 0, fmt.Errorf("scenario: topology %s: %w", ts.Kind, err)
	}
	return class, nil
}

func (ts Topology) validate() error {
	switch ts.Kind {
	case "SF", "DF", "HX", "XP", "FT3", "FT", "JF", "Clique", "Star":
	default:
		return fmt.Errorf("scenario: unknown topology kind %q", ts.Kind)
	}
	if _, err := ts.sizeClass(); err != nil {
		return err
	}
	if ts.Param < 0 || ts.Param2 < 0 {
		return fmt.Errorf("scenario: topology %s: negative size parameter", ts.Kind)
	}
	if ts.Kind == "Star" && ts.Param == 0 {
		// topo.Family has no class-sized Star to fall back on.
		return fmt.Errorf("scenario: topology Star has no size class: set param (the host count)")
	}
	// A value the build ignores would name the same topology under a second
	// key: a second fabric, cache identity and set of folded seeds.
	switch {
	case ts.Param > 0 && ts.Class != "":
		return fmt.Errorf("scenario: topology %s: class %q is ignored when param sizes the family", ts.Kind, ts.Class)
	case ts.Param == 0 && ts.Param2 != 0:
		return fmt.Errorf("scenario: topology %s: param2 is ignored without param", ts.Kind)
	case ts.Param2 != 0 && (ts.Kind == "DF" || ts.Kind == "Star"):
		return fmt.Errorf("scenario: topology %s takes no param2", ts.Kind)
	}
	return nil
}

// build constructs the topology. All randomness (XP lifts, JF wiring)
// derives from seed, so equal specs build identical topologies. A
// class-sized kind is the family topo.Family builds; JF, by class or by
// param, is the Jellyfish equivalent of that size's SF, wired from the
// same rng.
func (ts Topology) build(seed int64) (*topo.Topology, error) {
	rng := rand.New(rand.NewSource(seed))
	if ts.kind() != "JF" {
		return ts.family(rng)
	}
	ts.Kind = "SF"
	sf, err := ts.family(rng)
	if err != nil {
		return nil, err
	}
	return topo.EquivalentJellyfish(sf, rng)
}

// family builds every kind but JF, drawing from rng only for XP's lift.
func (ts Topology) family(rng *rand.Rand) (*topo.Topology, error) {
	if ts.Param == 0 {
		class, err := ts.sizeClass()
		if err != nil {
			return nil, err
		}
		return topo.Family(ts.kind(), class, rng)
	}
	switch ts.kind() {
	case "SF":
		return topo.SlimFly(ts.Param, ts.Param2)
	case "DF":
		return topo.Dragonfly(ts.Param)
	case "HX":
		l := ts.Param2
		if l == 0 {
			l = 3
		}
		return topo.HyperX(l, ts.Param, 0)
	case "XP":
		lift := ts.Param2
		if lift == 0 {
			lift = ts.Param
		}
		return topo.Xpander(ts.Param, lift, 0, rng)
	case "FT3":
		o := ts.Param2
		if o == 0 {
			o = 2
		}
		return topo.FatTree3(ts.Param, o)
	case "Clique":
		return topo.Complete(ts.Param, ts.Param2)
	case "Star":
		return topo.Star(ts.Param)
	}
	return nil, fmt.Errorf("scenario: unknown topology kind %q", ts.Kind)
}

// Pattern selects a traffic pattern from internal/traffic.
type Pattern struct {
	// Kind: uniform, permutation, k-permutations, off-diagonal, shuffle,
	// stencil, adversarial, worst-case.
	Kind string `json:"kind"`
	// Offset parametrizes off-diagonal (required non-zero there).
	Offset int `json:"offset,omitempty"`
	// K parametrizes k-permutations (0 = 4, the paper's oversubscribed
	// default).
	K int `json:"k,omitempty"`
	// Intensity is the worst-case pattern's traffic intensity (0 = 0.55,
	// §VI-C) or, for other kinds, an optional thinning fraction in (0,1).
	Intensity float64 `json:"intensity,omitempty"`
	// Randomize applies the §III-D randomized workload mapping on top.
	Randomize bool `json:"randomize,omitempty"`
}

func (ps Pattern) key() string { return string(ps.appendKey(nil)) }

func (ps Pattern) appendKey(b []byte) []byte {
	b = append(append(b, ps.Kind...), '/')
	b = append(strconv.AppendInt(b, int64(ps.Offset), 10), '/')
	b = append(strconv.AppendInt(b, int64(ps.K), 10), '/')
	b = append(appendFloat(b, ps.Intensity), '/')
	return strconv.AppendBool(b, ps.Randomize)
}

// label is the short human form used in tables and constraint matching.
func (ps Pattern) label() string {
	l := ps.Kind
	if ps.Randomize {
		l += "+rand"
	}
	return l
}

func (ps Pattern) validate() error {
	switch ps.Kind {
	case "uniform", "permutation", "k-permutations", "shuffle", "stencil",
		"adversarial", "worst-case":
	case "off-diagonal":
		if ps.Offset == 0 {
			return fmt.Errorf("scenario: off-diagonal pattern needs a non-zero offset")
		}
	default:
		return fmt.Errorf("scenario: unknown pattern kind %q", ps.Kind)
	}
	if ps.Intensity < 0 || ps.Intensity > 1 {
		return fmt.Errorf("scenario: pattern intensity %g outside [0,1]", ps.Intensity)
	}
	if ps.K < 0 {
		return fmt.Errorf("scenario: negative permutation count k=%d", ps.K)
	}
	return nil
}

// build generates the pattern for a topology. All randomness derives from
// seed: cells agreeing on (topology, pattern) receive identical flows.
func (ps Pattern) build(t *topo.Topology, seed int64) (traffic.Pattern, error) {
	rng := rand.New(rand.NewSource(seed))
	var pat traffic.Pattern
	switch ps.Kind {
	case "uniform":
		pat = traffic.RandomUniform(rng, t.N())
	case "permutation":
		pat = traffic.RandomPermutation(rng, t.N())
	case "k-permutations":
		k := ps.K
		if k == 0 {
			k = 4
		}
		pat = traffic.KRandomPermutations(rng, t.N(), k)
	case "off-diagonal":
		pat = traffic.OffDiagonal(t.N(), ps.Offset)
	case "shuffle":
		pat = traffic.Shuffle(t.N())
	case "stencil":
		pat = traffic.DefaultStencil(t.N())
	case "adversarial":
		pat = traffic.AdversarialOffDiagonal(t)
	case "worst-case":
		intensity := ps.Intensity
		if intensity == 0 {
			intensity = 0.55
		}
		return finishPattern(traffic.WorstCase(t, intensity, rng), ps, rng), nil
	default:
		return traffic.Pattern{}, fmt.Errorf("scenario: unknown pattern kind %q", ps.Kind)
	}
	if ps.Intensity > 0 && ps.Intensity < 1 {
		pat = traffic.Intensity(pat, ps.Intensity, rng)
	}
	return finishPattern(pat, ps, rng), nil
}

func finishPattern(pat traffic.Pattern, ps Pattern, rng *rand.Rand) traffic.Pattern {
	if ps.Randomize {
		pat = traffic.RandomizeMapping(pat, rng)
	}
	return pat
}

// FlowSize selects the flow-size distribution.
type FlowSize struct {
	// Kind: "fixed" (default) or "pfabric" (the §VII-A4 web-search
	// distribution).
	Kind string `json:"kind,omitempty"`
	// Bytes is the fixed flow size (default 1 MiB).
	Bytes int64 `json:"bytes,omitempty"`
}

func (fs FlowSize) label() string { return string(fs.appendKey(nil)) }

// appendKey appends the flow size's key, which is also its label.
func (fs FlowSize) appendKey(b []byte) []byte {
	if fs.Kind == "pfabric" {
		return append(b, "pfabric"...)
	}
	return strconv.AppendInt(b, fs.bytes(), 10)
}

func (fs FlowSize) bytes() int64 {
	if fs.Bytes == 0 {
		return 1 << 20
	}
	return fs.Bytes
}

func (fs FlowSize) validate() error {
	switch fs.Kind {
	case "", "fixed", "pfabric":
	default:
		return fmt.Errorf("scenario: unknown flow-size kind %q", fs.Kind)
	}
	if fs.Bytes < 0 {
		return fmt.Errorf("scenario: negative flow size %d", fs.Bytes)
	}
	return nil
}

// sampler returns the per-flow size function.
func (fs FlowSize) sampler() func(*rand.Rand) int64 {
	if fs.Kind == "pfabric" {
		return traffic.PFabricFlowSize
	}
	return traffic.FixedSize(fs.bytes())
}

// Spec is one concrete scenario cell: everything a simulation needs.
// The zero value of each optional field selects the documented default, so
// sparse JSON specs stay readable.
type Spec struct {
	// Name optionally labels the cell (matrices usually leave it empty).
	Name     string   `json:"name,omitempty"`
	Topology Topology `json:"topology"`
	// Layers is the routing layer count n (0 = the topology's
	// core.DefaultConfig recommendation).
	Layers int `json:"layers,omitempty"`
	// Rho is the layer sparsity ρ (0 = the topology default).
	Rho float64 `json:"rho,omitempty"`
	// Construction selects the layer-construction scheme: random (default),
	// min-interference, spain, past.
	Construction string `json:"construction,omitempty"`
	// Routing is the load-balancing scheme: fatpaths (default), ecmp,
	// letflow, minimal, spray.
	Routing string `json:"routing,omitempty"`
	// Transport: ndp (default), tcp, dctcp, mptcp.
	Transport string   `json:"transport,omitempty"`
	Pattern   Pattern  `json:"pattern"`
	FlowSize  FlowSize `json:"flowSize"`
	// Load is the Poisson flow arrival rate λ in flows/s (0 = synchronized
	// start at t=0).
	Load float64 `json:"load,omitempty"`
	// FailFrac fails this fraction of router-router links before the run.
	FailFrac float64 `json:"failFrac,omitempty"`
	// Replicas repeats the simulation with re-folded workload seeds and
	// aggregates flow results (0 = 1).
	Replicas int `json:"replicas,omitempty"`
	// HorizonMs is the simulated horizon in milliseconds (0 = 8000).
	HorizonMs float64 `json:"horizonMs,omitempty"`
	// MAT additionally computes the maximum achievable throughput of the
	// compiled (fabric, pattern) cell (the §VI layered LP, eps 0.12).
	MAT bool `json:"mat,omitempty"`
}

// Scheme name tables: each enum field's names, stated once, and what they
// select. The zero value of a field selects its default name (see the
// accessors below).
var (
	constructions = map[string]core.LayerScheme{
		"random":           core.RandomSampling,
		"min-interference": core.MinInterference,
		"spain":            core.SPAINScheme,
		"past":             core.PASTScheme,
	}
	transports = map[string]netsim.Transport{
		"ndp":   netsim.TransportNDP,
		"tcp":   netsim.TransportTCP,
		"dctcp": netsim.TransportDCTCP,
		"mptcp": netsim.TransportMPTCP,
	}
	routings = map[string]netsim.LoadBalance{
		"fatpaths": netsim.LBFatPaths,
		"ecmp":     netsim.LBECMP,
		"letflow":  netsim.LBLetFlow,
		"minimal":  netsim.LBMinimalLayer,
		"spray":    netsim.LBPacketSpray,
	}
)

func (s Spec) construction() string {
	if s.Construction == "" {
		return "random"
	}
	return s.Construction
}

func (s Spec) transport() string {
	if s.Transport == "" {
		return "ndp"
	}
	return s.Transport
}

func (s Spec) routing() string {
	if s.Routing == "" {
		return "fatpaths"
	}
	return s.Routing
}

func (s Spec) replicas() int {
	if s.Replicas < 1 {
		return 1
	}
	return s.Replicas
}

func (s Spec) horizonMs() float64 {
	if s.HorizonMs == 0 {
		return 8000
	}
	return s.HorizonMs
}

// validateFabric checks the fabric-defining axes alone — topology, layers,
// rho, construction: all that BuildFabric reads of a spec.
func (s Spec) validateFabric() error {
	if err := s.Topology.validate(); err != nil {
		return err
	}
	if _, ok := constructions[s.construction()]; !ok {
		return fmt.Errorf("scenario: unknown construction %q", s.Construction)
	}
	if s.Layers < 0 {
		return fmt.Errorf("scenario: negative layer count %d", s.Layers)
	}
	if !(s.Rho >= 0 && s.Rho <= 1) { // also rejects NaN
		return fmt.Errorf("scenario: rho %g outside [0,1]", s.Rho)
	}
	return nil
}

// Validate checks every enum and range of the spec.
func (s Spec) Validate() error {
	if err := s.validateFabric(); err != nil {
		return err
	}
	if err := s.Pattern.validate(); err != nil {
		return err
	}
	if err := s.FlowSize.validate(); err != nil {
		return err
	}
	if _, err := SimConfig(s); err != nil {
		return err
	}
	if s.Load < 0 {
		return fmt.Errorf("scenario: negative load %g", s.Load)
	}
	if s.FailFrac < 0 || s.FailFrac >= 1 {
		return fmt.Errorf("scenario: failFrac %g outside [0,1)", s.FailFrac)
	}
	if s.HorizonMs < 0 {
		return fmt.Errorf("scenario: negative horizon %g", s.HorizonMs)
	}
	if s.Replicas < 0 {
		return fmt.Errorf("scenario: negative replica count %d", s.Replicas)
	}
	return nil
}

// Key names the cell by its matrix axes — every axis as name=ident in
// canonical axis order, so two cells of one matrix never share a key. It
// names cells in -cells listings, telemetry records, journal records,
// errors and worker-panic attribution.
func (s Spec) Key() string {
	b := make([]byte, 0, 160)
	for i, ax := range axes {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(append(append(b, ax.name...), '='), ax.ident(s)...)
	}
	return string(b)
}

// CacheIdentity renders the cell's full canonical identity for the durable
// runtime (result cache and run journal): every result-affecting field in
// canonical form plus the run seed, and nothing else. Name (a label) is
// deliberately excluded, so renaming a cell still hits the cache. The
// determinism contract makes equal identities provably equal results:
// every random draw of a cell derives from (run seed, canonical resource
// keys) alone.
//
// The leading "v1" versions the identity schema itself; bump it if fields
// are added or renderings change. The engine fingerprint is layered on top
// by the cache's content address, not here, so journals can detect fingerprint drift
// separately from spec edits.
func (s Spec) CacheIdentity(runSeed int64) string {
	b := make([]byte, 0, 256)
	b = s.Topology.appendKey(append(b, "v1|topo="...))
	b = s.Pattern.appendKey(append(b, "|pattern="...))
	b = append(append(b, "|routing="...), s.routing()...)
	b = append(append(b, "|transport="...), s.transport()...)
	b = strconv.AppendInt(append(b, "|layers="...), int64(s.Layers), 10)
	b = appendFloat(append(b, "|rho="...), s.Rho)
	b = append(append(b, "|construction="...), s.construction()...)
	b = s.FlowSize.appendKey(append(b, "|flowSize="...))
	b = appendFloat(append(b, "|load="...), s.Load)
	b = appendFloat(append(b, "|failFrac="...), s.FailFrac)
	b = strconv.AppendInt(append(b, "|replicas="...), int64(s.replicas()), 10)
	b = appendFloat(append(b, "|horizonMs="...), s.horizonMs())
	b = strconv.AppendBool(append(b, "|mat="...), s.MAT)
	b = strconv.AppendInt(append(b, "|seed="...), runSeed, 10)
	return string(b)
}

// appendFloat appends the canonical rendering of a float axis: the
// shortest form that round-trips, with -0 rendered as 0 because every
// consumer treats the two alike.
func appendFloat(b []byte, v float64) []byte {
	if v == 0 {
		v = 0 // -0 == 0: drop the sign
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// workloadKey identifies the workload-defining axes: cells with equal
// workload keys face the identical flows, sizes, and arrival times.
func (s Spec) workloadKey() string {
	b := s.Topology.appendKey(make([]byte, 0, 96))
	b = s.Pattern.appendKey(append(b, '|'))
	b = s.FlowSize.appendKey(append(b, '|'))
	return string(appendFloat(append(b, '|'), s.Load))
}

// appendRoutingKey appends the fabric-defining axes: cells with equal
// routing keys share one built fabric (and its lazily materialized
// tables).
func (s Spec) appendRoutingKey(b []byte) []byte {
	b = s.Topology.appendKey(b)
	b = strconv.AppendInt(append(b, '|'), int64(s.Layers), 10)
	b = appendFloat(append(b, '|'), s.Rho)
	return append(append(b, '|'), s.construction()...)
}
