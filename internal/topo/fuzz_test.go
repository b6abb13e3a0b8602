package topo

import (
	"math/rand"
	"testing"
)

// FuzzBuilders drives every topology constructor with arbitrary small
// parameters: a builder must either return an error or a topology passing
// Validate (connected router graph, consistent concentration table,
// endpoints attached) — never panic. Parameters are bounded so a fuzzing
// session explores parameter validity, not construction scale.
func FuzzBuilders(f *testing.F) {
	for _, seed := range [][4]int64{
		{0, 5, 0, 1},  // SlimFly q=5
		{0, 4, 0, 1},  // SlimFly non-prime
		{0, -7, 3, 1}, // negative q
		{1, 3, 0, 1},  // Dragonfly
		{2, 4, 3, 1},  // HyperX
		{3, 4, 2, 1},  // FatTree3
		{4, 15, 0, 1}, // Complete
		{5, 24, 0, 1}, // Star
		{5, 0, 0, 1},  // Star n=0
		{6, 8, 8, 7},  // Xpander
		{7, 18, 5, 7}, // Jellyfish
		{7, 3, 9, 7},  // Jellyfish kp >= nr
		{6, 1, 2, 7},  // Xpander kp=1
	} {
		f.Add(int16(seed[0]), int16(seed[1]), int16(seed[2]), seed[3])
	}
	f.Fuzz(func(t *testing.T, which, a, b int16, seed int64) {
		pa, pb := int(a), int(b)
		rng := rand.New(rand.NewSource(seed))
		var tp *Topology
		var err error
		switch mod(int(which), 8) {
		case 0:
			tp, err = SlimFly(mod(pa, 30), mod(pb, 40))
		case 1:
			tp, err = Dragonfly(mod(pa, 6))
		case 2:
			tp, err = HyperX(mod(pa, 5), mod(pb, 9), 0)
		case 3:
			tp, err = FatTree3(mod(pa, 7), mod(pb, 4))
		case 4:
			tp, err = Complete(mod(pa, 40), mod(pb, 40))
		case 5:
			tp, err = Star(mod(pa, 64))
		case 6:
			tp, err = Xpander(mod(pa, 12), mod(pb, 12), 0, rng)
		case 7:
			tp, err = Jellyfish(mod(pa, 40), mod(pb, 16), 2, rng)
		}
		if err != nil {
			return
		}
		if tp == nil {
			t.Fatal("builder returned neither topology nor error")
		}
		if verr := tp.Validate(); verr != nil {
			t.Fatalf("builder accepted (which=%d a=%d b=%d) but built an invalid topology: %v", which, a, b, verr)
		}
	})
}
