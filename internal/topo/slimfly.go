package topo

import (
	"fmt"

	"repro/internal/graph"
)

// Slim Fly (Besta & Hoefler, SC'14) is the diameter-2 MMS-graph topology.
// For a prime q = 4w + δ with δ ∈ {-1, +1}, the MMS graph has N_r = 2q²
// routers arranged as two subgraphs of q groups with q routers each.
// Vertices are (b, x, y) with b ∈ {0,1} and x, y ∈ GF(q):
//
//	(0, x, y) ~ (0, x, y′)  iff  y − y′ ∈ X   (intra-group, subgraph 0)
//	(1, m, c) ~ (1, m, c′)  iff  c − c′ ∈ X′  (intra-group, subgraph 1)
//	(0, x, y) ~ (1, m, c)   iff  y = m·x + c  (inter-subgraph)
//
// where, with ξ a primitive root of GF(q):
//
//	δ = +1 (q ≡ 1 mod 4): X = even powers of ξ, X′ = odd powers.
//	δ = −1 (q ≡ 3 mod 4): X = {±ξ^{2i} : 0 ≤ i < w}, X′ = {±ξ^{2i+1}}.
//
// Both generator sets are inverse-closed, so the graph is undirected. The
// network radix is k′ = (3q − δ)/2 and the diameter is 2. The paper attaches
// p = ⌈k′/2⌉ endpoints per router.

// SlimFly builds the MMS Slim Fly for prime q ≡ 1 or 3 (mod 4). Pass p <= 0
// for the paper's default concentration ⌈k′/2⌉.
func SlimFly(q, p int) (*Topology, error) {
	if q < 3 || !isPrime(q) {
		return nil, fmt.Errorf("slimfly: q=%d must be an odd prime (prime-power fields not implemented; see README.md's topology notes)", q)
	}
	var delta int
	switch q % 4 {
	case 1:
		delta = 1
	case 3:
		delta = -1
	default:
		return nil, fmt.Errorf("slimfly: q=%d is not ±1 mod 4", q)
	}
	xi := primitiveRoot(q)
	X, Xp := mmsGeneratorSets(q, delta, xi)

	nr := 2 * q * q
	kp := (3*q - delta) / 2
	if p <= 0 {
		p = ceilDiv(kp, 2)
	}
	g := graph.New(nr)
	linkOf := make([]LinkClass, 0, nr*kp/2)
	id := func(b, x, y int) int { return b*q*q + x*q + y }

	// Intra-group edges in both subgraphs (short, copper).
	addIntra := func(b int, gen map[int]bool) {
		for x := 0; x < q; x++ {
			for y := 0; y < q; y++ {
				for yp := y + 1; yp < q; yp++ {
					if gen[mod(y-yp, q)] {
						g.AddEdge(id(b, x, y), id(b, x, yp))
						linkOf = append(linkOf, Copper)
					}
				}
			}
		}
	}
	addIntra(0, X)
	addIntra(1, Xp)

	// Inter-subgraph edges: (0,x,y) ~ (1,m,c) iff y = m·x + c (long, fiber).
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			for x := 0; x < q; x++ {
				y := (m*x + c) % q
				g.AddEdge(id(0, x, y), id(1, m, c))
				linkOf = append(linkOf, Fiber)
			}
		}
	}

	if ok, d := g.IsRegular(); !ok || d != kp {
		return nil, fmt.Errorf("slimfly: q=%d produced non-%d-regular graph (construction bug)", q, kp)
	}
	conc := make([]int, nr)
	for i := range conc {
		conc[i] = p
	}
	t := &Topology{
		Name:         fmt.Sprintf("SF(q=%d,p=%d)", q, p),
		Kind:         "SF",
		G:            g,
		Conc:         conc,
		LinkOf:       linkOf,
		Diameter:     2,
		NominalRadix: kp,
	}
	return t.finish(), nil
}

// mmsGeneratorSets returns the inverse-closed generator sets X and X′ for
// the MMS construction.
func mmsGeneratorSets(q, delta, xi int) (X, Xp map[int]bool) {
	X = make(map[int]bool)
	Xp = make(map[int]bool)
	if delta == 1 {
		// All even and odd powers of ξ respectively; each has (q-1)/2
		// elements and is inverse-closed because -1 is a quadratic residue.
		pow := 1
		for i := 0; i < q-1; i++ {
			if i%2 == 0 {
				X[pow] = true
			} else {
				Xp[pow] = true
			}
			pow = pow * xi % q
		}
		return X, Xp
	}
	// δ = -1, q = 4w - 1: X = {±ξ^{2i}}, X′ = {±ξ^{2i+1}} for 0 ≤ i < w.
	w := (q + 1) / 4
	pow := 1
	for i := 0; i < 2*w; i++ {
		if i%2 == 0 {
			X[pow] = true
			X[mod(-pow, q)] = true
		} else {
			Xp[pow] = true
			Xp[mod(-pow, q)] = true
		}
		pow = pow * xi % q
	}
	return X, Xp
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// primitiveRoot returns a generator of the multiplicative group of GF(q)
// for prime q.
func primitiveRoot(q int) int {
	phi := q - 1
	// Prime factors of phi.
	var factors []int
	m := phi
	for d := 2; d*d <= m; d++ {
		if m%d == 0 {
			factors = append(factors, d)
			for m%d == 0 {
				m /= d
			}
		}
	}
	if m > 1 {
		factors = append(factors, m)
	}
	for g := 2; g < q; g++ {
		ok := true
		for _, f := range factors {
			if powMod(g, phi/f, q) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
	panic("primitiveRoot: none found (q not prime?)")
}

func powMod(b, e, m int) int {
	r := 1
	b %= m
	for e > 0 {
		if e&1 == 1 {
			r = r * b % m
		}
		b = b * b % m
		e >>= 1
	}
	return r
}
