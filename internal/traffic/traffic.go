// Package traffic generates the workload patterns of §II-C of the FatPaths
// paper: random uniform, random permutation, off-diagonals, shuffle, 2D
// stencils, adversarial skewed off-diagonals, and a per-topology worst-case
// pattern that maximizes mean flow path length; plus the pFabric web-search
// flow-size distribution and Poisson flow arrivals used in §VII, and the
// randomized workload mapping of §III-D.
package traffic

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/topo"
)

// Flow is one communicating endpoint pair (the paper uses "flow" and
// "message" interchangeably).
type Flow struct {
	Src, Dst int32
}

// Pattern is a named multiset of endpoint flows. Oversubscribed patterns
// (four parallel permutations, stencils) contain several flows per source.
type Pattern struct {
	Name  string
	N     int // endpoint count the pattern was generated for
	Flows []Flow
}

// RandomUniform draws one destination per source u.a.r. (excluding self).
func RandomUniform(rng *rand.Rand, n int) Pattern {
	flows := make([]Flow, 0, n)
	for s := 0; s < n; s++ {
		d := rng.Intn(n - 1)
		if d >= s {
			d++
		}
		flows = append(flows, Flow{int32(s), int32(d)})
	}
	return Pattern{Name: "random-uniform", N: n, Flows: flows}
}

// RandomPermutation pairs sources with a permutation drawn u.a.r.
// Fixed points (s -> s) are dropped, matching the convention that an
// endpoint does not message itself.
func RandomPermutation(rng *rand.Rand, n int) Pattern {
	p := rng.Perm(n)
	flows := make([]Flow, 0, n)
	for s, d := range p {
		if s != d {
			flows = append(flows, Flow{int32(s), int32(d)})
		}
	}
	return Pattern{Name: "random-permutation", N: n, Flows: flows}
}

// KRandomPermutations overlays k independent random permutations (the
// paper's 4×-oversubscribed "four random permutations" pattern for k=4).
func KRandomPermutations(rng *rand.Rand, n, k int) Pattern {
	var flows []Flow
	for i := 0; i < k; i++ {
		flows = append(flows, RandomPermutation(rng, n).Flows...)
	}
	return Pattern{Name: fmt.Sprintf("%d-random-permutations", k), N: n, Flows: flows}
}

// OffDiagonal maps t(s) = (s + c) mod n for a fixed offset c.
func OffDiagonal(n, c int) Pattern {
	flows := make([]Flow, 0, n)
	for s := 0; s < n; s++ {
		d := ((s+c)%n + n) % n
		if d != s {
			flows = append(flows, Flow{int32(s), int32(d)})
		}
	}
	return Pattern{Name: fmt.Sprintf("off-diagonal(c=%d)", c), N: n, Flows: flows}
}

// Shuffle maps t(s) = rotl_b(s) mod n, the bitwise left rotation over
// b = ⌈log2 n⌉ bits, representing MPI all-to-all style collectives.
func Shuffle(n int) Pattern {
	b := bits.Len(uint(n - 1))
	if b == 0 {
		b = 1
	}
	mask := (1 << b) - 1
	flows := make([]Flow, 0, n)
	for s := 0; s < n; s++ {
		d := ((s << 1) | (s >> (b - 1))) & mask
		d %= n
		if d != s {
			flows = append(flows, Flow{int32(s), int32(d)})
		}
	}
	return Pattern{Name: "shuffle", N: n, Flows: flows}
}

// Stencil2D overlays off-diagonals at ±each offset, modeling the paper's
// 2D stencils (4 off-diagonals at offsets {±1, ±w} where w is the logical
// process-grid row width; the paper uses 42 for N<=10k and 1337 above).
func Stencil2D(n int, offsets []int) Pattern {
	var flows []Flow
	for _, c := range offsets {
		flows = append(flows, OffDiagonal(n, c).Flows...)
		flows = append(flows, OffDiagonal(n, -c).Flows...)
	}
	return Pattern{Name: fmt.Sprintf("stencil%v", offsets), N: n, Flows: flows}
}

// DefaultStencil returns the paper's stencil offsets for a given n.
func DefaultStencil(n int) Pattern {
	w := 42
	if n > 10000 {
		w = 1337
	}
	if w >= n {
		w = n/2 + 1
	}
	return Stencil2D(n, []int{1, w})
}

// AdversarialOffDiagonal is the skewed off-diagonal of §II-C: a large
// offset aligned to the concentration p so that ALL p endpoints of every
// router target the same destination router — the maximal path-collision
// pattern ("we make sure that it has many colliding paths").
func AdversarialOffDiagonal(t *topo.Topology) Pattern {
	n := t.N()
	p := int(t.MeanConcentration())
	if p < 1 {
		p = 1
	}
	c := (n / 2 / p) * p
	if c <= 0 || c >= n {
		c = p
	}
	if c >= n {
		c = 1
	}
	pat := OffDiagonal(n, c)
	pat.Name = fmt.Sprintf("adversarial-off-diagonal(c=%d)", c)
	return pat
}

// WorstCase builds the per-topology stress pattern of §VI-C: a pairing of
// endpoints that (approximately) maximizes the average router-level path
// length, computed by a greedy maximum-weight matching on shortest-path
// distance (a 1/2-approximation of the maximum-weight matching used by
// Jyothi et al.'s TopoBench; exact blossom matching is unnecessary for the
// stress property). intensity ∈ (0,1] selects the fraction of endpoint
// pairs that communicate (the paper's "traffic intensity").
func WorstCase(t *topo.Topology, intensity float64, rng *rand.Rand) Pattern {
	nr := t.Nr()
	// Router-level pairwise distances via BFS from every router.
	dist := make([][]int32, nr)
	for r := 0; r < nr; r++ {
		dist[r] = t.G.BFS(r)
	}
	type pair struct {
		a, b int32
		d    int32
	}
	pairs := make([]pair, 0, nr*(nr-1)/2)
	for a := 0; a < nr; a++ {
		for b := a + 1; b < nr; b++ {
			pairs = append(pairs, pair{int32(a), int32(b), dist[a][b]})
		}
	}
	// Greedy matching: longest distances first; shuffle equal-distance runs
	// for tie-breaking diversity.
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].d > pairs[j].d })
	matched := make([]int32, nr)
	for i := range matched {
		matched[i] = -1
	}
	for _, p := range pairs {
		if matched[p.a] < 0 && matched[p.b] < 0 {
			matched[p.a] = p.b
			matched[p.b] = p.a
		}
	}
	// Endpoints of matched router pairs exchange flows both ways.
	var flows []Flow
	for a := 0; a < nr; a++ {
		b := int(matched[a])
		if b < 0 || b < a {
			continue
		}
		alo, ahi := t.Endpoints(a)
		blo, bhi := t.Endpoints(b)
		na, nb := ahi-alo, bhi-blo
		m := na
		if nb < m {
			m = nb
		}
		for i := 0; i < m; i++ {
			if intensity < 1 && rng.Float64() >= intensity {
				continue
			}
			flows = append(flows, Flow{int32(alo + i), int32(blo + i)})
			flows = append(flows, Flow{int32(blo + i), int32(alo + i)})
		}
	}
	return Pattern{Name: fmt.Sprintf("worst-case(intensity=%.2f)", intensity), N: t.N(), Flows: flows}
}

// RandomizeMapping applies the randomized workload mapping of §III-D: a
// u.a.r. relabeling of endpoints, destroying any locality the pattern had.
func RandomizeMapping(p Pattern, rng *rand.Rand) Pattern {
	perm := rng.Perm(p.N)
	flows := make([]Flow, len(p.Flows))
	for i, f := range p.Flows {
		flows[i] = Flow{int32(perm[f.Src]), int32(perm[f.Dst])}
	}
	return Pattern{Name: p.Name + "+randomized", N: p.N, Flows: flows}
}

// ExpInterarrival draws an exponential inter-arrival time for a Poisson
// process with the given rate (events per second). Returns seconds.
func ExpInterarrival(rng *rand.Rand, rate float64) float64 {
	mustPositive("arrival rate", rate)
	return rng.ExpFloat64() / rate
}

// pFabric web-search flow-size distribution, discretized to 20 sizes as in
// §VII-A4, with a ≈1 MB mean. The support spans ~10 KB to 30 MB with the
// characteristic heavy tail (most flows are small, most bytes are in
// elephants). CDF points follow the published web-search workload shape.
var pfabricSizes = [20]int64{
	10e3, 20e3, 30e3, 50e3, 80e3, 130e3, 200e3, 300e3, 400e3, 550e3,
	700e3, 900e3, 1.2e6, 1.6e6, 2.2e6, 3e6, 4.5e6, 7e6, 12e6, 30e6,
}

var pfabricCDF = [20]float64{
	0.135, 0.265, 0.375, 0.475, 0.565, 0.635, 0.695, 0.745, 0.785, 0.825,
	0.855, 0.880, 0.902, 0.921, 0.937, 0.950, 0.962, 0.972, 0.980, 1.0,
}

// PFabricFlowSize samples a flow size (bytes) from the discretized
// web-search distribution.
func PFabricFlowSize(rng *rand.Rand) int64 {
	u := rng.Float64()
	for i, c := range pfabricCDF {
		if u <= c {
			return pfabricSizes[i]
		}
	}
	return pfabricSizes[len(pfabricSizes)-1]
}

// PFabricMean returns the exact mean of the discretized distribution.
func PFabricMean() float64 {
	var mean, prev float64
	for i := range pfabricSizes {
		p := pfabricCDF[i] - prev
		prev = pfabricCDF[i]
		mean += p * float64(pfabricSizes[i])
	}
	return mean
}

// FixedSize returns a degenerate size sampler for experiments that sweep a
// single flow size (Fig 2, Fig 11, ...).
func FixedSize(bytes int64) func(*rand.Rand) int64 {
	return func(*rand.Rand) int64 { return bytes }
}

// Intensity thins a pattern, keeping each flow with the given probability.
func Intensity(p Pattern, frac float64, rng *rand.Rand) Pattern {
	if frac >= 1 {
		return p
	}
	flows := make([]Flow, 0, int(float64(len(p.Flows))*frac)+1)
	for _, f := range p.Flows {
		if rng.Float64() < frac {
			flows = append(flows, f)
		}
	}
	return Pattern{Name: fmt.Sprintf("%s@%.2f", p.Name, frac), N: p.N, Flows: flows}
}

// ValidateFlows checks all endpoints are in range and no self flows exist.
func (p Pattern) ValidateFlows() error {
	for _, f := range p.Flows {
		if f.Src < 0 || f.Dst < 0 || int(f.Src) >= p.N || int(f.Dst) >= p.N {
			return fmt.Errorf("pattern %s: flow %v out of range [0,%d)", p.Name, f, p.N)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("pattern %s: self flow at %d", p.Name, f.Src)
		}
	}
	return nil
}

// mustPositive is a tiny helper guarding experiment parameters.
func mustPositive(name string, v float64) {
	if v <= 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("traffic: %s must be positive, got %v", name, v))
	}
}
