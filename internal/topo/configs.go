package topo

import (
	"fmt"
	"math/rand"
)

// SizeClass selects one of the paper's network size categories (§II-B).
// Packet-level experiments default to Small; analytic experiments use the
// paper's exact Table IV configurations via TableIVSet.
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
	var err error
	switch class {
	case Small:
		// N: SF 588, DF 342, HX 500, XP 288, FT 500.
		if s.SF, err = SlimFly(7, 0); err != nil {
			return nil, err
		}
		if s.DF, err = Dragonfly(3); err != nil {
			return nil, err
		}
		if s.HX, err = HyperX(3, 5, 0); err != nil {
			return nil, err
		}
		if s.XP, err = Xpander(8, 8, 0, rng); err != nil {
			return nil, err
		}
		if s.FT, err = FatTree3(5, 2); err != nil {
			return nil, err
		}
	case Medium:
		// The paper's N≈10k class (Table IV parameters).
		if s.SF, err = SlimFly(19, 14); err != nil {
			return nil, err
		}
		if s.DF, err = Dragonfly(8); err != nil {
			return nil, err
		}
		if s.HX, err = HyperX(3, 11, 10); err != nil {
			return nil, err
		}
		if s.XP, err = Xpander(32, 32, 16, rng); err != nil {
			return nil, err
		}
		if s.FT, err = FatTree3(18, 1); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown size class %d", class)
	}
	return &s, nil
}

// TableIVConfig describes one row of the paper's Table IV with the exact
// published parameters.
type TableIVConfig struct {
	Name  string
	DPrim int // the distance d' at which CDP and PI are evaluated
	Build func(rng *rand.Rand) (*Topology, error)
}

// TableIVSet returns the six default-variant rows of Table IV (clique, SF,
// XP, HX, DF, FT3) with the paper's exact k′, N_r, N.
func TableIVSet() []TableIVConfig {
	return []TableIVConfig{
		{"clique", 2, func(*rand.Rand) (*Topology, error) { return Complete(100, 100) }},
		{"SF", 3, func(*rand.Rand) (*Topology, error) { return SlimFly(19, 14) }},
		{"XP", 3, func(r *rand.Rand) (*Topology, error) { return Xpander(32, 32, 16, r) }},
		{"HX", 3, func(*rand.Rand) (*Topology, error) { return HyperX(3, 11, 10) }},
		{"DF", 4, func(*rand.Rand) (*Topology, error) { return Dragonfly(8) }},
		{"FT3", 4, func(*rand.Rand) (*Topology, error) { return FatTree3(18, 1) }},
	}
}

// ByName builds a topology family at a size class by its paper abbreviation
// (SF, DF, HX, XP, FT3, JF, Clique). JF is the SF-equivalent Jellyfish.
func ByName(kind string, class SizeClass, rng *rand.Rand) (*Topology, error) {
	suite, err := BuildSuite(class, rng)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "SF":
		return suite.SF, nil
	case "DF":
		return suite.DF, nil
	case "HX":
		return suite.HX, nil
	case "XP":
		return suite.XP, nil
	case "FT3", "FT":
		return suite.FT, nil
	case "JF":
		return EquivalentJellyfish(suite.SF, rng)
	case "Clique":
		if class == Medium {
			return Complete(100, 100)
		}
		return Complete(31, 31)
	default:
		return nil, fmt.Errorf("unknown topology kind %q", kind)
	}
}
