// Package diversity implements the path-diversity analysis of §IV of the
// FatPaths paper: minimal-path length/count distributions (Fig 6), counts
// of disjoint non-minimal paths CDP (Fig 7, Table IV), Path Interference PI
// (Fig 8, Table IV), Total Network Load (§IV-B3), per-pattern collision
// histograms (Fig 4), and the rank-based length-limited edge connectivity
// of Appendix B-C.
package diversity

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topo"
)

// MinimalPathStats summarizes the distributions of Fig 6: lengths lmin(s,t)
// of minimal paths and diversities cmin(s,t) (numbers of edge-disjoint
// minimal paths) over router pairs.
type MinimalPathStats struct {
	// LenHist[l] is the number of router pairs with lmin == l.
	LenHist *stats.IntHistogram
	// CountHist[c] is the number of router pairs with cmin == c
	// (values > 3 are grouped under key 4, matching the ">3" bucket).
	CountHist *stats.IntHistogram
	// SingleMinimalFrac is the fraction of pairs with exactly one minimal
	// path — the paper's "shortest paths fall short" headline quantity.
	SingleMinimalFrac float64
}

// MinimalPaths computes lmin/cmin distributions over all router pairs if
// samples <= 0, or over that many uniformly sampled pairs otherwise.
func MinimalPaths(g *graph.Graph, samples int, rng *rand.Rand) MinimalPathStats {
	res := MinimalPathStats{
		LenHist:   stats.NewIntHistogram(),
		CountHist: stats.NewIntHistogram(),
	}
	single := int64(0)
	consider := func(s, t int, dist []int32) {
		l := int(dist[t])
		if l <= 0 {
			return
		}
		res.LenHist.Add(l)
		c := g.DisjointPathsBounded([]int{s}, []int{t}, graph.DisjointPathsOpts{MaxLen: l, MaxCount: 64})
		if c == 1 {
			single++
		}
		if c > 3 {
			c = 4
		}
		res.CountHist.Add(c)
	}
	if samples <= 0 {
		for s := 0; s < g.N(); s++ {
			dist := g.BFS(s)
			for t := s + 1; t < g.N(); t++ {
				consider(s, t, dist)
			}
		}
	} else {
		for i := 0; i < samples; i++ {
			s, t := graph.SampleDistinctPair(rng, g.N())
			dist := g.BFS(s)
			consider(s, t, dist)
		}
	}
	if res.CountHist.Total > 0 {
		res.SingleMinimalFrac = float64(single) / float64(res.CountHist.Total)
	}
	return res
}

// CDPSummary holds the radix-normalized disjoint-path statistics of
// Table IV: counts are reported as fractions of the network radix k′.
type CDPSummary struct {
	L        int          // the hop bound l
	Raw      stats.Sample // raw counts c_l per sampled pair
	Mean     float64      // mean of c_l / k'
	Tail1Pct float64      // 1% tail of c_l / k'
}

// CDP samples router pairs u.a.r. and computes c_l({s},{t}) for the given
// hop bound, returning paper-style radix-normalized summaries.
func CDP(g *graph.Graph, kPrime, l, samples int, rng *rand.Rand) CDPSummary {
	return CDPAmong(g, nil, kPrime, l, samples, rng)
}

// CDPAmong is CDP restricted to a vertex pool (e.g. only endpoint-hosting
// routers of a fat tree — traffic never originates at aggregation or core
// switches, and Table IV's FT3 row measures edge-to-edge diversity).
// A nil pool means all vertices.
func CDPAmong(g *graph.Graph, pool []int, kPrime, l, samples int, rng *rand.Rand) CDPSummary {
	var sample stats.Sample
	for i := 0; i < samples; i++ {
		s, t := samplePoolPair(rng, g.N(), pool)
		c := g.DisjointPathsBounded([]int{s}, []int{t}, graph.DisjointPathsOpts{MaxLen: l})
		sample.Add(float64(c))
	}
	sum := CDPSummary{L: l, Raw: sample}
	if kPrime > 0 {
		sum.Mean = sample.Mean() / float64(kPrime)
		sum.Tail1Pct = sample.Percentile(0.01) / float64(kPrime)
	}
	return sum
}

// CDPDistribution returns the raw distribution of c_l(A,B) over sampled
// pairs for several hop bounds (Fig 7's panels).
func CDPDistribution(g *graph.Graph, ls []int, samples int, rng *rand.Rand) map[int]*stats.IntHistogram {
	out := make(map[int]*stats.IntHistogram, len(ls))
	for _, l := range ls {
		out[l] = stats.NewIntHistogram()
	}
	for i := 0; i < samples; i++ {
		s, t := graph.SampleDistinctPair(rng, g.N())
		for _, l := range ls {
			c := g.DisjointPathsBounded([]int{s}, []int{t}, graph.DisjointPathsOpts{MaxLen: l})
			out[l].Add(c)
		}
	}
	return out
}

// PISummary holds radix-normalized path-interference statistics.
type PISummary struct {
	L          int
	Raw        stats.Sample
	Mean       float64
	Tail999Pct float64
}

// PathInterference samples router quadruples (a,b),(c,d) u.a.r. and
// computes I^l_{ac,bd} = c_l({a,c},{b}) + c_l({a,c},{d}) − c_l({a,c},{b,d})
// (§IV-B2), returning radix-normalized summaries as in Table IV.
func PathInterference(g *graph.Graph, kPrime, l, samples int, rng *rand.Rand) PISummary {
	return PathInterferenceAmong(g, nil, kPrime, l, samples, rng)
}

// PathInterferenceAmong restricts the sampled communicating quadruples to a
// vertex pool (nil = all vertices); see CDPAmong.
func PathInterferenceAmong(g *graph.Graph, pool []int, kPrime, l, samples int, rng *rand.Rand) PISummary {
	var sample stats.Sample
	for i := 0; i < samples; i++ {
		a, b, c, d := sampleQuadruplePool(rng, g.N(), pool)
		i1 := g.DisjointPathsBounded([]int{a, c}, []int{b}, graph.DisjointPathsOpts{MaxLen: l})
		i2 := g.DisjointPathsBounded([]int{a, c}, []int{d}, graph.DisjointPathsOpts{MaxLen: l})
		i3 := g.DisjointPathsBounded([]int{a, c}, []int{b, d}, graph.DisjointPathsOpts{MaxLen: l})
		pi := i1 + i2 - i3
		if pi < 0 {
			pi = 0 // greedy counting noise; interference is non-negative
		}
		sample.Add(float64(pi))
	}
	sum := PISummary{L: l, Raw: sample}
	if kPrime > 0 {
		sum.Mean = sample.Mean() / float64(kPrime)
		sum.Tail999Pct = sample.Percentile(0.999) / float64(kPrime)
	}
	return sum
}

func sampleQuadruplePool(rng *rand.Rand, n int, pool []int) (a, b, c, d int) {
	vals := make(map[int]bool, 4)
	out := [4]int{}
	for i := 0; i < 4; {
		v := poolDraw(rng, n, pool)
		if !vals[v] {
			vals[v] = true
			out[i] = v
			i++
		}
	}
	return out[0], out[1], out[2], out[3]
}

func poolDraw(rng *rand.Rand, n int, pool []int) int {
	if pool == nil {
		return rng.Intn(n)
	}
	return pool[rng.Intn(len(pool))]
}

func samplePoolPair(rng *rand.Rand, n int, pool []int) (int, int) {
	if pool == nil {
		return graph.SampleDistinctPair(rng, n)
	}
	for {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if a != b {
			return a, b
		}
	}
}

// TNL returns the Total Network Load bound of §IV-B3: the maximum number of
// concurrent flows a topology can carry without congestion, k′·N_r / d,
// where d is the average (routing) path length.
func TNL(kPrime, nr int, avgPathLen float64) float64 {
	if avgPathLen <= 0 {
		return 0
	}
	return float64(kPrime*nr) / avgPathLen
}

// HostRouters returns the routers that host at least one endpoint — the
// sampling pool Table IV uses for heterogeneous topologies (fat trees).
func HostRouters(t *topo.Topology) []int {
	var out []int
	for r := 0; r < t.Nr(); r++ {
		if lo, hi := t.Endpoints(r); hi > lo {
			out = append(out, r)
		}
	}
	return out
}
