// Package lp provides a dense two-phase primal simplex solver for the
// linear programs of §VI (maximum achievable throughput under general and
// layered multi-commodity routing). It supports maximization with <=, >=
// and = constraints over non-negative variables. Problem sizes in this
// repository are modest (hundreds of rows, thousands of variables), so the
// tableau is one dense row-major slice. Entering variables are priced by
// largest reduced cost; Bland's smallest-index rule takes over while a run
// of degenerate pivots lasts, which keeps its anti-cycling guarantee at a
// fraction of its pivot count (a third over fig9's programs, a tenth on the
// largest).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is a constraint sense.
type Relation int8

const (
	// LE is <=.
	LE Relation = iota
	// GE is >=.
	GE
	// EQ is =.
	EQ
)

// Problem is a linear program: maximize Objective·x subject to the added
// constraints and x >= 0.
type Problem struct {
	numVars     int
	objective   []float64
	constraints []constraint
}

type constraint struct {
	coeffs []float64 // sparse-by-index pairs flattened: idx, value
	idxs   []int
	rel    Relation
	rhs    float64
}

// New creates a problem with n non-negative variables and a zero objective.
func New(n int) *Problem {
	return &Problem{numVars: n, objective: make([]float64, n)}
}

// SetObjective sets the coefficient of variable i in the maximization
// objective.
func (p *Problem) SetObjective(i int, c float64) {
	p.objective[i] = c
}

// AddConstraint adds Σ coeffs[k]·x[idxs[k]] REL rhs. Index/value slices are
// copied.
func (p *Problem) AddConstraint(idxs []int, coeffs []float64, rel Relation, rhs float64) {
	if len(idxs) != len(coeffs) {
		panic("lp: idxs/coeffs length mismatch")
	}
	for _, i := range idxs {
		if i < 0 || i >= p.numVars {
			panic(fmt.Sprintf("lp: variable index %d out of range", i))
		}
	}
	p.constraints = append(p.constraints, constraint{
		idxs:   append([]int(nil), idxs...),
		coeffs: append([]float64(nil), coeffs...),
		rel:    rel,
		rhs:    rhs,
	})
}

// ErrInfeasible is returned when no feasible point exists.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned when the objective is unbounded above.
var ErrUnbounded = errors.New("lp: unbounded")

const (
	eps = 1e-9
	// blandAfter is the number of consecutive degenerate pivots (no
	// objective progress) after which pricing switches to Bland's rule until
	// the next pivot that makes progress. Largest-coefficient pricing can
	// cycle only inside such a run, and Bland's rule cannot, so every run
	// ends; non-degenerate pivots strictly raise the objective, so there are
	// finitely many runs.
	blandAfter = 50
)

// Solve runs two-phase simplex, returning an optimal solution and its
// objective value.
func (p *Problem) Solve() ([]float64, float64, error) {
	x, obj, _, err := p.solve(blandAfter)
	return x, obj, err
}

// normalized returns the constraint's sense and the sign its coefficients
// take once its right-hand side is made non-negative.
func (c *constraint) normalized() (Relation, float64) {
	if c.rhs >= 0 {
		return c.rel, 1
	}
	switch c.rel {
	case LE:
		return GE, -1
	case GE:
		return LE, -1
	}
	return EQ, -1
}

// tableau is the dense simplex tableau, row-major: m constraint rows, then
// the reduced-cost row. Columns are structural | slack/surplus | rhs.
// Artificial variables have no column: one is only ever basic (its column
// would be a unit vector) or gone for good, so it exists as a basis entry
// >= w-1 and nothing else.
type tableau struct {
	a      []float64
	m, w   int
	basis  []int
	pivots int
}

func (t *tableau) row(i int) []float64 { return t.a[i*t.w : (i+1)*t.w : (i+1)*t.w] }

// solve is Solve with the pricing fallback threshold as a parameter
// (0 = Bland's rule throughout, the reference the tests compare against);
// it also returns the number of pivots taken.
func (p *Problem) solve(stallLimit int) ([]float64, float64, int, error) {
	m := len(p.constraints)
	nSlack := 0
	for _, c := range p.constraints {
		if c.rel != EQ {
			nSlack++
		}
	}
	nCols := p.numVars + nSlack // also the rhs column's index
	t := &tableau{a: make([]float64, (m+1)*(nCols+1)), m: m, w: nCols + 1, basis: make([]int, m)}
	red := t.row(m)
	slack, art := p.numVars, nCols
	for ri := range p.constraints {
		c := &p.constraints[ri]
		row := t.row(ri)
		rel, sign := c.normalized()
		for k, idx := range c.idxs {
			row[idx] += sign * c.coeffs[k]
		}
		row[nCols] = sign * c.rhs
		switch rel {
		case LE:
			row[slack] = 1
			t.basis[ri] = slack
			slack++
			continue
		case GE:
			row[slack] = -1
			slack++
		}
		// GE and EQ rows start on an artificial. Phase 1 maximizes minus
		// their sum: pricing out a basic cost of -1 adds the row.
		t.basis[ri] = art
		art++
		for j, v := range row {
			red[j] += v
		}
	}

	if art > nCols {
		if err := t.iterate(stallLimit); err != nil {
			return nil, 0, t.pivots, err
		}
		// Feasible iff all artificials are (numerically) zero.
		sum := 0.0
		for ri, b := range t.basis {
			if b >= nCols {
				sum += t.row(ri)[nCols]
			}
		}
		if sum > 1e-6 {
			return nil, 0, t.pivots, ErrInfeasible
		}
		// Drive remaining basic artificials out of the basis if possible.
		for ri, b := range t.basis {
			if b < nCols {
				continue
			}
			row := t.row(ri)
			swapped := false
			for j := 0; j < nCols; j++ {
				if math.Abs(row[j]) > eps {
					t.pivot(ri, j)
					swapped = true
					break
				}
			}
			if !swapped {
				clear(row) // redundant row
			}
		}
	}

	// Phase 2: the original objective with the basic variables priced out.
	clear(red)
	copy(red, p.objective)
	for ri, b := range t.basis {
		if b >= p.numVars || p.objective[b] == 0 {
			continue
		}
		cb := p.objective[b]
		for j, v := range t.row(ri) {
			red[j] -= cb * v
		}
	}
	if err := t.iterate(stallLimit); err != nil {
		return nil, 0, t.pivots, err
	}

	x := make([]float64, p.numVars)
	for ri, b := range t.basis {
		if b < p.numVars {
			x[b] = t.row(ri)[nCols]
		}
	}
	obj := 0.0
	for i, c := range p.objective {
		obj += c * x[i]
	}
	return x, obj, t.pivots, nil
}

// iterate runs primal simplex pivots on the current reduced-cost row until
// optimality.
func (t *tableau) iterate(stallLimit int) error {
	nCols := t.w - 1
	red := t.row(t.m)[:nCols]
	maxIter := 20000 + 50*(t.m+nCols)
	stalled := 0 // consecutive degenerate pivots
	for iter := 0; iter < maxIter; iter++ {
		// Entering variable: the largest positive reduced cost, or, in a
		// long degenerate run, the smallest index with one (Bland).
		enter, best := -1, eps
		for j, r := range red {
			if r > best {
				enter, best = j, r
				if stalled >= stallLimit {
					break
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Leaving variable: min ratio, ties by smallest basis index (Bland).
		leave := -1
		bestRatio := math.Inf(1)
		for ri := 0; ri < t.m; ri++ {
			a := t.a[ri*t.w+enter]
			if a > eps {
				ratio := t.a[ri*t.w+nCols] / a
				if ratio < bestRatio-eps || (math.Abs(ratio-bestRatio) <= eps && (leave < 0 || t.basis[ri] < t.basis[leave])) {
					bestRatio = ratio
					leave = ri
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		if bestRatio > eps {
			stalled = 0
		} else {
			stalled++
		}
		t.pivot(leave, enter)
	}
	return errors.New("lp: iteration limit exceeded")
}

// pivot performs a Gauss-Jordan pivot on (row, col), the reduced-cost row
// included.
func (t *tableau) pivot(row, col int) {
	pr := t.row(row)
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for ri := 0; ri <= t.m; ri++ {
		if ri == row {
			continue
		}
		r := t.row(ri)
		f := r[col]
		if f == 0 {
			continue
		}
		r = r[:len(pr)] // one bounds check here, none in the loop
		for j, v := range pr {
			r[j] -= f * v
		}
	}
	t.basis[row] = col
	t.pivots++
}
