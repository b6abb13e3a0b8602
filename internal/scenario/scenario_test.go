package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomMatrix draws a matrix with random (distinct) axis values and random
// constraints from rng. Kept to cheap axes only — these matrices are
// expanded, never executed.
func randomMatrix(rng *rand.Rand) *Matrix {
	m := &Matrix{
		Name: fmt.Sprintf("prop-%d", rng.Intn(1000)),
		Base: Spec{
			Topology: Topology{Kind: "SF", Param: 5},
			Pattern:  Pattern{Kind: "uniform"},
		},
	}
	pickSome := func(n int) int { return 1 + rng.Intn(n) }
	if rng.Intn(2) == 0 {
		kinds := []string{"SF", "DF", "HX", "XP"}
		for _, k := range kinds[:pickSome(len(kinds))] {
			m.Axes.Topologies = append(m.Axes.Topologies, Topology{Kind: k, Param: 3 + rng.Intn(3)})
		}
	}
	if rng.Intn(2) == 0 {
		pats := []Pattern{{Kind: "uniform"}, {Kind: "adversarial"}, {Kind: "shuffle"}, {Kind: "uniform", Randomize: true}}
		m.Axes.Patterns = pats[:pickSome(len(pats))]
	}
	if rng.Intn(2) == 0 {
		rs := []string{"fatpaths", "ecmp", "letflow", "minimal", "spray"}
		m.Axes.Routings = rs[:pickSome(len(rs))]
	}
	if rng.Intn(2) == 0 {
		ts := []string{"ndp", "tcp", "dctcp"}
		m.Axes.Transports = ts[:pickSome(len(ts))]
	}
	if rng.Intn(2) == 0 {
		ls := []int{0, 1, 4, 9}
		m.Axes.Layers = ls[:pickSome(len(ls))]
	}
	if rng.Intn(2) == 0 {
		rh := []float64{0, 0.5, 0.8, 1}
		m.Axes.Rhos = rh[:pickSome(len(rh))]
	}
	if rng.Intn(2) == 0 {
		fs := []FlowSize{{Bytes: 32 << 10}, {Bytes: 1 << 20}, {Kind: "pfabric"}}
		m.Axes.FlowSizes = fs[:pickSome(len(fs))]
	}
	if rng.Intn(2) == 0 {
		lo := []float64{0, 100, 300}
		m.Axes.Loads = lo[:pickSome(len(lo))]
	}
	if rng.Intn(2) == 0 {
		ff := []float64{0, 0.05}
		m.Axes.FailFracs = ff[:pickSome(len(ff))]
	}
	// Random skip constraints over a random subset of axes, with values
	// drawn from the rendered values actually present.
	nSkip := rng.Intn(3)
	for i := 0; i < nSkip; i++ {
		when := map[string]string{}
		if len(m.Axes.Routings) > 0 && rng.Intn(2) == 0 {
			when["routing"] = m.Axes.Routings[rng.Intn(len(m.Axes.Routings))]
		}
		if len(m.Axes.Layers) > 0 && rng.Intn(2) == 0 {
			when["layers"] = fmt.Sprintf("%d", m.Axes.Layers[rng.Intn(len(m.Axes.Layers))])
		}
		if len(m.Axes.Topologies) > 0 && rng.Intn(2) == 0 {
			when["topology"] = m.Axes.Topologies[rng.Intn(len(m.Axes.Topologies))].Kind
		}
		if len(when) > 0 {
			m.Skip = append(m.Skip, Constraint{When: when})
		}
	}
	return m
}

// TestExpandProperties checks, over many random matrices, that expansion
// is deterministic, duplicate-free, constraint-filtered, and that
// cells + filtered equals the full cross-product size.
func TestExpandProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := randomMatrix(rng)
		cells, filtered, err := m.Expand()
		if err != nil {
			t.Fatalf("trial %d: %v\nmatrix: %+v", trial, err, m)
		}
		// Count: product of axis lengths == kept + filtered.
		want := 1
		for _, n := range []int{
			len(m.Axes.Topologies), len(m.Axes.Patterns), len(m.Axes.Routings),
			len(m.Axes.Transports), len(m.Axes.Layers), len(m.Axes.Rhos),
			len(m.Axes.Constructions), len(m.Axes.FlowSizes), len(m.Axes.Loads),
			len(m.Axes.FailFracs),
		} {
			if n > 0 {
				want *= n
			}
		}
		if got := len(cells) + filtered; got != want {
			t.Fatalf("trial %d: cells(%d)+filtered(%d) = %d, want product %d",
				trial, len(cells), filtered, got, want)
		}
		// Determinism: a second expansion is identical.
		again, filtered2, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if filtered != filtered2 || !reflect.DeepEqual(cells, again) {
			t.Fatalf("trial %d: expansion not deterministic", trial)
		}
		// Uniqueness: no two cells serialize identically.
		seen := map[string]bool{}
		for _, c := range cells {
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if seen[string(b)] {
				t.Fatalf("trial %d: duplicate cell %s", trial, b)
			}
			seen[string(b)] = true
		}
		// Constraint filtering: no surviving cell matches any constraint.
		for i, c := range cells {
			skip, err := m.skipped(c)
			if err != nil {
				t.Fatal(err)
			}
			if skip {
				t.Fatalf("trial %d: cell %d matches a skip constraint but survived", trial, i)
			}
		}
	}
}

// TestSpecJSONRoundTrip: a spec survives marshal/unmarshal losslessly.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Topology: Topology{Kind: "SF", Param: 7, Param2: 3}, Layers: 4, Rho: 0.6},
		{
			Name:         "full",
			Topology:     Topology{Kind: "HX", Class: "medium"},
			Layers:       9,
			Rho:          0.8,
			Construction: "min-interference",
			Routing:      "letflow",
			Transport:    "dctcp",
			Pattern:      Pattern{Kind: "off-diagonal", Offset: 7, Intensity: 0.5, Randomize: true},
			FlowSize:     FlowSize{Kind: "pfabric"},
			Load:         300,
			FailFrac:     0.05,
			Replicas:     3,
			HorizonMs:    1234.5,
			Seed:         99,
			MAT:          true,
		},
	}
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("spec %d: round trip lost data:\n  in  %+v\n  out %+v", i, s, got)
		}
	}
}

// TestMatrixJSONRoundTrip: random matrices survive JSON round trips.
func TestMatrixJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		m := randomMatrix(rng)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var got Matrix
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*m, got) {
			t.Fatalf("trial %d: round trip lost data:\n  in  %+v\n  out %+v", trial, m, got)
		}
	}
}

func TestExpandRejectsDuplicateAxisValues(t *testing.T) {
	m := &Matrix{
		Base: Spec{Topology: Topology{Kind: "SF", Param: 5}, Pattern: Pattern{Kind: "uniform"}},
		Axes: Axes{Rhos: []float64{0.6, 0.6}},
	}
	if _, _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate axis values must be rejected, got %v", err)
	}
}

func TestExpandRejectsUnknownConstraintAxis(t *testing.T) {
	m := &Matrix{
		Base: Spec{Topology: Topology{Kind: "SF", Param: 5}, Pattern: Pattern{Kind: "uniform"}},
		Skip: []Constraint{{When: map[string]string{"colour": "blue"}}},
	}
	if _, _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "unknown axis") {
		t.Fatalf("unknown constraint axis must be rejected, got %v", err)
	}
	m.Skip = []Constraint{{When: map[string]string{}}}
	if _, _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "empty skip") {
		t.Fatalf("empty constraint must be rejected, got %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Topology: Topology{Kind: "SF", Param: 5}, Pattern: Pattern{Kind: "uniform"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Topology: Topology{Kind: "TORUS"}, Pattern: Pattern{Kind: "uniform"}},
		{Topology: Topology{Kind: "SF", Class: "gigantic"}, Pattern: Pattern{Kind: "uniform"}},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "zipf"}},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "off-diagonal"}}, // offset required
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, Routing: "valiant"},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, Transport: "quic"},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, Construction: "greedy"},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, Rho: 1.5},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, FailFrac: 1},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, Load: -1},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, Layers: -2},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, HorizonMs: -5},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "uniform"}, FlowSize: FlowSize{Kind: "weird"}},
		{Topology: Topology{Kind: "SF"}, Pattern: Pattern{Kind: "k-permutations", K: -2}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
	// Star has no size class to fall back on: without param it must be
	// rejected here, by name, not deep inside the cell as an unknown kind.
	star := Spec{Topology: Topology{Kind: "Star"}, Pattern: Pattern{Kind: "uniform"}}
	if err := star.Validate(); err == nil || !strings.Contains(err.Error(), "param") {
		t.Fatalf("Star without param: err %v, want one naming param", err)
	}
	star.Topology.Param = 8
	if err := star.Validate(); err != nil {
		t.Fatalf("Star with param rejected: %v", err)
	}
}

// TestSeedForPartitioning: equal tags share seeds, distinct tags get
// (statistically certainly) distinct seeds, and the run seed matters.
func TestSeedForPartitioning(t *testing.T) {
	if seedFor(1, "a") != seedFor(1, "a") {
		t.Fatal("seedFor not deterministic")
	}
	if seedFor(1, "a") == seedFor(1, "b") {
		t.Fatal("distinct tags collided")
	}
	if seedFor(1, "a") == seedFor(2, "a") {
		t.Fatal("run seed ignored")
	}
}

// TestWorkloadKeySharing: cells differing only in routing/transport axes
// agree on the workload key (and therefore face identical workloads),
// while workload-defining axes split it.
func TestWorkloadKeySharing(t *testing.T) {
	base := Spec{Topology: Topology{Kind: "SF", Param: 5}, Pattern: Pattern{Kind: "uniform"}, Load: 300}
	a, b := base, base
	a.Routing, a.Transport, a.Layers, a.Rho = "ecmp", "tcp", 1, 1
	b.Routing, b.Transport = "fatpaths", "ndp"
	if a.workloadKey() != b.workloadKey() {
		t.Fatal("routing/transport axes must not change the workload key")
	}
	c := base
	c.FlowSize = FlowSize{Bytes: 64 << 10}
	if c.workloadKey() == base.workloadKey() {
		t.Fatal("flow size must change the workload key")
	}
	d := base
	d.Pattern = Pattern{Kind: "uniform", Randomize: true}
	if d.workloadKey() == base.workloadKey() {
		t.Fatal("pattern must change the workload key")
	}
}

// capMatrix is a loads × failFracs matrix of rows × cols cells: the two
// cheapest axes to list 2⁸ distinct values on.
func capMatrix(rows, cols int) *Matrix {
	m := &Matrix{
		Name: "cap",
		Base: Spec{Topology: Topology{Kind: "SF", Param: 5}, Pattern: Pattern{Kind: "uniform"}},
	}
	for i := 0; i < rows; i++ {
		m.Axes.Loads = append(m.Axes.Loads, float64(i))
	}
	for i := 0; i < cols; i++ {
		m.Axes.FailFracs = append(m.Axes.FailFracs, float64(i)/float64(cols))
	}
	return m
}

// TestExpandBoundsCrossProduct: a matrix is outside input, so Expand counts
// the cross product before it builds one cell. Exactly MaxCells expands;
// one cell more, or a product past 2⁶⁴, is the named error.
func TestExpandBoundsCrossProduct(t *testing.T) {
	cells, _, err := capMatrix(256, 256).Expand()
	if err != nil || len(cells) != MaxCells {
		t.Fatalf("a matrix of exactly MaxCells cells: %d cells, err %v", len(cells), err)
	}
	_, _, err = capMatrix(257, 255).Expand() // 65 535: under by one, still fine
	if err != nil {
		t.Fatal(err)
	}
	over := capMatrix(MaxCells+1, 1)
	if _, _, err = over.Expand(); err == nil ||
		!strings.Contains(err.Error(), `matrix "cap"`) || !strings.Contains(err.Error(), "65537 cells") {
		t.Fatalf("MaxCells+1 cells: err %v, want the matrix and the count named", err)
	}
	// Skip constraints do not buy room: the bound is on what the odometer
	// would visit, not on what survives it.
	over.Skip = []Constraint{{When: map[string]string{"load": "0"}}}
	if _, _, err = over.Expand(); err == nil {
		t.Fatal("a skip constraint must not lift the bound")
	}
	// Seven 1 000-value axes multiply past 2⁶⁴; the count must not wrap
	// back under the limit.
	huge := capMatrix(1000, 1000)
	for i := 0; i < 1000; i++ {
		huge.Axes.Rhos = append(huge.Axes.Rhos, float64(i)/1000)
		huge.Axes.Layers = append(huge.Axes.Layers, i)
		huge.Axes.Routings = append(huge.Axes.Routings, fmt.Sprint(i))
		huge.Axes.Transports = append(huge.Axes.Transports, fmt.Sprint(i))
		huge.Axes.Constructions = append(huge.Axes.Constructions, fmt.Sprint(i))
	}
	if _, _, err = huge.Expand(); err == nil || !strings.Contains(err.Error(), "more than 2^64") {
		t.Fatalf("10^21 cells: err %v", err)
	}
}

// FuzzMatrixExpand: a matrix is bytes from a spec file or a /scenarios
// body. Through the strict decoding both front ends apply (unknown fields
// rejected) and then Expand, any bytes give an error or at most MaxCells
// cells, each of which validates and has a key and a cache identity; never
// a panic, never an unbounded expansion. The committed corpus
// (testdata/fuzz/FuzzMatrixExpand) holds the examples/scenarios/ files plus
// a duplicate axis value, an unknown constraint axis and an over-cap
// matrix.
func FuzzMatrixExpand(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Matrix
		if err := DecodeStrict(bytes.NewReader(data), &m); err != nil {
			return
		}
		cells, filtered, err := m.Expand()
		if err != nil {
			return
		}
		if len(cells)+filtered > MaxCells {
			t.Fatalf("expanded %d cells + %d skipped, over the limit of %d", len(cells), filtered, MaxCells)
		}
		for i, c := range cells {
			if err := c.Validate(); err != nil {
				t.Fatalf("cell %d does not validate: %v", i, err)
			}
			if c.Key() == "" || c.CacheIdentity(42) == "" {
				t.Fatalf("cell %d has an empty key or cache identity", i)
			}
		}
	})
}
