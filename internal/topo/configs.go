package topo

import (
	"fmt"
	"math/rand"
)

// SizeClass selects one of the paper's network size categories (§II-B).
// Packet-level experiments default to Small; analytic experiments at full
// scale use Medium, the paper's exact Table IV configurations.
type SizeClass int

const (
	// Small is N ≈ 200–1,000 endpoints (fast enough for packet simulation
	// inside `go test`).
	Small SizeClass = iota
	// Medium is N ≈ 7,000–17,000 endpoints (the paper's N≈10k class).
	Medium
)

// ParseSizeClass resolves a size-class name as the CLIs and scenario specs
// spell it.
func ParseSizeClass(name string) (SizeClass, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	}
	return 0, fmt.Errorf("unknown size class %q (want small or medium)", name)
}

// Suite holds one topology of each deterministic family at comparable size,
// the set compared throughout the evaluation.
type Suite struct {
	SF, DF, HX, XP, FT *Topology
}

// All returns the suite members in the paper's presentation order.
func (s *Suite) All() []*Topology {
	return []*Topology{s.SF, s.DF, s.HX, s.XP, s.FT}
}

// BuildSuite constructs the comparison suite for a size class. All
// constructions are deterministic given rng.
func BuildSuite(class SizeClass, rng *rand.Rand) (*Suite, error) {
	var s Suite
	for _, m := range []struct {
		kind string
		t    **Topology
	}{{"SF", &s.SF}, {"DF", &s.DF}, {"HX", &s.HX}, {"XP", &s.XP}, {"FT3", &s.FT}} {
		var err error
		if *m.t, err = Family(m.kind, class, rng); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

// Family builds one family at a size class: SF, DF, HX, XP, FT3 (alias FT)
// or Clique. It is the one statement of the classes. Small is N: SF 588,
// DF 342, HX 500, XP 288, FT 500, clique 992; Medium is the paper's N≈10k
// class with Table IV's parameters. Only XP draws from rng (its lift).
func Family(kind string, class SizeClass, rng *rand.Rand) (*Topology, error) {
	if class != Small && class != Medium {
		return nil, fmt.Errorf("unknown size class %d", class)
	}
	medium := class == Medium
	switch kind {
	case "SF":
		if medium {
			return SlimFly(19, 14)
		}
		return SlimFly(7, 0)
	case "DF":
		if medium {
			return Dragonfly(8)
		}
		return Dragonfly(3)
	case "HX":
		if medium {
			return HyperX(3, 11, 10)
		}
		return HyperX(3, 5, 0)
	case "XP":
		if medium {
			return Xpander(32, 32, 16, rng)
		}
		return Xpander(8, 8, 0, rng)
	case "FT3", "FT":
		if medium {
			return FatTree3(18, 1)
		}
		return FatTree3(5, 2)
	case "Clique":
		if medium {
			return Complete(100, 100)
		}
		return Complete(31, 31)
	}
	return nil, fmt.Errorf("unknown topology kind %q", kind)
}
