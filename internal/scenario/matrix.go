package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"
	"strconv"
)

// Axes lists the swept values per axis. An empty axis keeps the Base
// spec's value; a non-empty axis overrides it per cell. Axis values must
// be pairwise distinct (duplicates would silently duplicate cells).
type Axes struct {
	Topologies    []Topology `json:"topologies,omitempty"`
	Patterns      []Pattern  `json:"patterns,omitempty"`
	Routings      []string   `json:"routings,omitempty"`
	Transports    []string   `json:"transports,omitempty"`
	Layers        []int      `json:"layers,omitempty"`
	Rhos          []float64  `json:"rhos,omitempty"`
	Constructions []string   `json:"constructions,omitempty"`
	FlowSizes     []FlowSize `json:"flowSizes,omitempty"`
	Loads         []float64  `json:"loads,omitempty"`
	FailFracs     []float64  `json:"failFracs,omitempty"`
}

// Constraint skips every cell whose rendered axis values match all entries
// of When. Keys are axis names (topology, pattern, routing, transport,
// layers, rho, construction, flowSize, load, failFrac); values are the
// canonical renderings produced by AxisValue.
type Constraint struct {
	When map[string]string `json:"when"`
}

// Matrix is a declarative sweep: a base spec, per-axis value lists, and
// skip constraints cutting the cross product.
type Matrix struct {
	Name string       `json:"name,omitempty"`
	Base Spec         `json:"base"`
	Axes Axes         `json:"axes"`
	Skip []Constraint `json:"skip,omitempty"`
}

// An axis is one swept dimension of a Matrix, stated once: its name, how
// many override values a matrix lists for it, how the i-th override is
// written into a cell, the key under which two overrides count as
// duplicates, and the canonical string a cell's value renders to.
type axis struct {
	name   string
	n      func(*Axes) int
	set    func(*Spec, *Axes, int)
	key    func(*Axes, int) string
	render func(Spec) string
}

// axisOf states an axis whose overrides are vals(axes) and whose value in a
// cell is *field(spec).
func axisOf[T any](name string, vals func(*Axes) []T, field func(*Spec) *T, key func(T) string, render func(Spec) string) axis {
	return axis{
		name:   name,
		n:      func(a *Axes) int { return len(vals(a)) },
		set:    func(s *Spec, a *Axes, i int) { *field(s) = vals(a)[i] },
		key:    func(a *Axes, i int) string { return key(vals(a)[i]) },
		render: render,
	}
}

func asIs(v string) string  { return v }
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// axes is every matrix axis in the fixed nesting order of expansion,
// outermost first. Cell order is the row order of every scenario table.
// Renderings: topology → kind, pattern → kind (plus "+rand"), flowSize →
// byte count or "pfabric", numeric axes → %g, scheme axes → resolved name.
var axes = []axis{
	axisOf("topology", func(a *Axes) []Topology { return a.Topologies }, func(s *Spec) *Topology { return &s.Topology },
		Topology.key, func(s Spec) string { return s.Topology.Kind }),
	axisOf("pattern", func(a *Axes) []Pattern { return a.Patterns }, func(s *Spec) *Pattern { return &s.Pattern },
		Pattern.key, func(s Spec) string { return s.Pattern.label() }),
	axisOf("routing", func(a *Axes) []string { return a.Routings }, func(s *Spec) *string { return &s.Routing },
		asIs, Spec.routing),
	axisOf("transport", func(a *Axes) []string { return a.Transports }, func(s *Spec) *string { return &s.Transport },
		asIs, Spec.transport),
	axisOf("layers", func(a *Axes) []int { return a.Layers }, func(s *Spec) *int { return &s.Layers },
		strconv.Itoa, func(s Spec) string { return strconv.Itoa(s.Layers) }),
	axisOf("rho", func(a *Axes) []float64 { return a.Rhos }, func(s *Spec) *float64 { return &s.Rho },
		fmtG, func(s Spec) string { return fmtG(s.Rho) }),
	axisOf("construction", func(a *Axes) []string { return a.Constructions }, func(s *Spec) *string { return &s.Construction },
		asIs, Spec.construction),
	axisOf("flowSize", func(a *Axes) []FlowSize { return a.FlowSizes }, func(s *Spec) *FlowSize { return &s.FlowSize },
		FlowSize.label, func(s Spec) string { return s.FlowSize.label() }),
	axisOf("load", func(a *Axes) []float64 { return a.Loads }, func(s *Spec) *float64 { return &s.Load },
		fmtG, func(s Spec) string { return fmtG(s.Load) }),
	axisOf("failFrac", func(a *Axes) []float64 { return a.FailFracs }, func(s *Spec) *float64 { return &s.FailFrac },
		fmtG, func(s Spec) string { return fmtG(s.FailFrac) }),
}

// AxisNames returns the matrix axis names in their fixed nesting order
// (outermost first) — the one list constraint keys and cell renderings are
// defined over.
func AxisNames() []string {
	names := make([]string, len(axes))
	for i, ax := range axes {
		names[i] = ax.name
	}
	return names
}

// AxisValue renders one axis of a spec to its canonical constraint-matching
// string (see axes for the renderings).
func AxisValue(s Spec, name string) (string, error) {
	for _, ax := range axes {
		if ax.name == name {
			return ax.render(s), nil
		}
	}
	return "", fmt.Errorf("scenario: unknown axis %q (have %v)", name, AxisNames())
}

// skipped reports whether any constraint matches the cell.
func (m *Matrix) skipped(s Spec) (bool, error) {
	for _, c := range m.Skip {
		match := true
		// Sorted axis order keeps the error (when several axes are bad)
		// deterministic; the conjunction itself is order-independent.
		for _, axis := range slices.Sorted(maps.Keys(c.When)) {
			got, err := AxisValue(s, axis)
			if err != nil {
				return false, err
			}
			if got != c.When[axis] {
				match = false
				break
			}
		}
		if match && len(c.When) > 0 {
			return true, nil
		}
	}
	return false, nil
}

// validate rejects duplicate values within an axis and invalid constraint
// shapes up front, so Expand failures carry useful messages.
func (m *Matrix) validate() error {
	for _, ax := range axes {
		set := map[string]bool{}
		for i := 0; i < ax.n(&m.Axes); i++ {
			k := ax.key(&m.Axes, i)
			if set[k] {
				return fmt.Errorf("scenario: matrix %q: duplicate %s axis value %s", m.Name, ax.name, k)
			}
			set[k] = true
		}
	}
	for _, c := range m.Skip {
		if len(c.When) == 0 {
			return fmt.Errorf("scenario: matrix %q: empty skip constraint", m.Name)
		}
		for _, axis := range slices.Sorted(maps.Keys(c.When)) {
			if _, err := AxisValue(m.Base, axis); err != nil {
				return fmt.Errorf("scenario: matrix %q: %w", m.Name, err)
			}
		}
	}
	return nil
}

// MaxCells bounds a matrix's cross product, skipped cells included. A
// matrix arrives from outside the program (a spec file, a /scenarios body)
// and three 1 000-value axes in 15 KB of JSON would otherwise have Expand
// build and validate 10⁹ specs. The largest committed matrix is 480 cells.
const MaxCells = 1 << 16

// Expand compiles the matrix into concrete, validated cells in the fixed
// nesting order of axes and reports how many cross-product cells the skip
// constraints filtered. Expansion is a pure function of the matrix: the
// same matrix always yields the same cells in the same order. A cross
// product of more than MaxCells is an error, found before any cell is built.
func (m *Matrix) Expand() (cells []Spec, filtered int, err error) {
	if err := m.validate(); err != nil {
		return nil, 0, err
	}
	// idx is an odometer over the override lists, last axis fastest. An
	// axis without overrides has one position: the Base spec's value.
	idx, n := make([]int, len(axes)), make([]int, len(axes))
	product, fits := uint64(1), true
	for k, ax := range axes {
		n[k] = ax.n(&m.Axes)
		hi, lo := bits.Mul64(product, uint64(max(n[k], 1)))
		product, fits = lo, fits && hi == 0
	}
	if !fits || product > MaxCells {
		count := "more than 2^64"
		if fits {
			count = strconv.FormatUint(product, 10)
		}
		return nil, 0, fmt.Errorf("scenario: matrix %q: cross product of %s cells exceeds the limit of %d", m.Name, count, MaxCells)
	}
	for {
		s := m.Base
		for k, ax := range axes {
			if n[k] > 0 {
				ax.set(&s, &m.Axes, idx[k])
			}
		}
		skip, err := m.skipped(s)
		if err != nil {
			return nil, 0, err
		}
		if skip {
			filtered++
		} else {
			if err := s.Validate(); err != nil {
				return nil, 0, fmt.Errorf("matrix %q cell %d: %w", m.Name, len(cells), err)
			}
			cells = append(cells, s)
		}
		k := len(axes) - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < n[k] {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return cells, filtered, nil
		}
	}
}

// DecodeStrict decodes the one JSON value r holds into v, the way spec
// files and daemon request bodies are read. An unknown field is an error,
// so a typo fails loudly instead of selecting a default; so is anything
// but whitespace after the value, which would otherwise be ignored: a file
// holding two matrices would run only the first.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch err := dec.Decode(&json.RawMessage{}); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("more than one JSON value")
	default:
		return fmt.Errorf("after the JSON value: %w", err)
	}
}
