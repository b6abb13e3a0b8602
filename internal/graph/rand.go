package graph

import "math/rand"

// NewRand returns a deterministic PRNG for the given seed. Every randomized
// construction and experiment in this repository threads one of these
// explicitly — there is no package-level randomness — so runs reproduce
// exactly given a seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Permutation returns a random permutation of [0, n).
func Permutation(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SampleDistinctPair draws two distinct integers from [0, n) uniformly.
func SampleDistinctPair(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}
