package diversity

import (
	"math/rand"

	"repro/internal/graph"
)

// This file implements Appendix B-C of the paper: the randomized
// linear-algebraic length-limited connectivity computation adapted from
// Cheung, Lau and Leung. Vertices carry vectors over a finite field F;
// pairwise-orthogonal unit vectors are injected at the source's neighbors
// and propagated through random edge coefficients via the fixed-point
// iteration F = F·K + Ps (Eq. 15). After l iterations the rank of the
// columns selected at the sink's neighbors equals, with high probability,
// the number of disjoint paths of length at most l+1 (Theorem 2).
//
// The field is GF(p) with p = 2³¹ − 1, large enough that random degeneracy
// is negligible at the radixes used here; arithmetic stays within uint64.

const fieldP uint64 = 2147483647 // 2^31 - 1, prime

func fmul(a, b uint64) uint64 { return a * b % fieldP }
func fadd(a, b uint64) uint64 { return (a + b) % fieldP }

func fsub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + fieldP - b
}

// finv computes the multiplicative inverse via Fermat's little theorem.
func finv(a uint64) uint64 {
	// a^(p-2) mod p
	var r uint64 = 1
	e := fieldP - 2
	base := a % fieldP
	for e > 0 {
		if e&1 == 1 {
			r = fmul(r, base)
		}
		base = fmul(base, base)
		e >>= 1
	}
	return r
}

func randNonzero(rng *rand.Rand) uint64 {
	return uint64(rng.Int63n(int64(fieldP-1))) + 1
}

// matRank computes the rank of a dense matrix over GF(p) via Gaussian
// elimination. rows are modified in place.
func matRank(rows [][]uint64) int {
	if len(rows) == 0 {
		return 0
	}
	cols := len(rows[0])
	rank := 0
	for c := 0; c < cols && rank < len(rows); c++ {
		// Find pivot.
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r][c] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		inv := finv(rows[rank][c])
		for j := c; j < cols; j++ {
			rows[rank][j] = fmul(rows[rank][j], inv)
		}
		for r := 0; r < len(rows); r++ {
			if r == rank || rows[r][c] == 0 {
				continue
			}
			f := rows[r][c]
			for j := c; j < cols; j++ {
				rows[r][j] = fsub(rows[r][j], fmul(f, rows[rank][j]))
			}
		}
		rank++
	}
	return rank
}

// EdgeConnectivityBounded returns (w.h.p.) the maximum number of
// edge-disjoint s-t paths of length at most maxLen, using the directed-arc
// transformed graph of Appendix B-C (Eq. 12): vectors live on arcs, unit
// vectors are injected on arcs leaving s, and the rank is taken over arcs
// entering t. Immediate U-turns (i,k)->(k,i) are excluded — simple paths
// never take them.
func EdgeConnectivityBounded(g *graph.Graph, s, t, maxLen int, rng *rand.Rand) int {
	if s == t {
		return 0
	}
	if maxLen < 1 {
		return 0
	}
	m2 := 2 * g.M() // directed arcs, numbered as graph.EdgeArc numbers them
	k := g.Degree(s)
	// Unit index per arc leaving s.
	unit := make(map[int32]int, k)
	for i, h := range g.Neighbors(s) {
		unit[int32(g.EdgeArc(int(h.Edge), s))] = i
	}
	// Incoming-arc lists per vertex (arcs whose head is v).
	inArcs := make([][]int32, g.N())
	for e, ed := range g.Edges() {
		inArcs[ed.V] = append(inArcs[ed.V], int32(g.EdgeArc(e, int(ed.U))))
		inArcs[ed.U] = append(inArcs[ed.U], int32(g.EdgeArc(e, int(ed.V))))
	}
	// K′ has one random coefficient per consecutive arc PAIR (i,k),(k,j)
	// (Eq. 12) — a per-arc coefficient would make every vertex broadcast a
	// single mixed vector, collapsing edge-disjoint paths that share a
	// vertex down to vertex-disjoint counts.
	coeff := make(map[int64]uint64)
	pairKey := func(in, out int32) int64 { return int64(in)*int64(m2) + int64(out) }
	for out := int32(0); out < int32(m2); out++ {
		for _, in := range inArcs[g.ArcTail(int(out))] {
			if in == out^1 {
				continue // U-turn on the same undirected edge
			}
			coeff[pairKey(in, out)] = randNonzero(rng)
		}
	}
	F := make([][]uint64, m2)
	newF := make([][]uint64, m2)
	for a := range F {
		F[a] = make([]uint64, k)
		newF[a] = make([]uint64, k)
	}
	// maxLen-edge paths: inject (1 edge) + maxLen-1 propagations.
	iters := maxLen - 1
	for it := 0; it <= iters; it++ {
		for a := int32(0); a < int32(m2); a++ {
			col := newF[a]
			for i := range col {
				col[i] = 0
			}
			// Do not extend paths out of t: they have arrived.
			if tail := g.ArcTail(int(a)); tail != t && tail != s {
				for _, in := range inArcs[tail] {
					if in == a^1 {
						continue // U-turn on the same undirected edge
					}
					c := coeff[pairKey(in, a)]
					src := F[in]
					for i := range col {
						if src[i] != 0 {
							col[i] = fadd(col[i], fmul(c, src[i]))
						}
					}
				}
			}
			if i, ok := unit[a]; ok {
				col[i] = fadd(col[i], 1)
			}
		}
		F, newF = newF, F
	}
	rows := make([][]uint64, 0, g.Degree(t))
	for _, in := range inArcs[t] {
		rows = append(rows, append([]uint64(nil), F[in]...))
	}
	return matRank(rows)
}
