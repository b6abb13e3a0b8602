// Package lp provides a dense two-phase primal simplex solver for the
// linear programs of §VI (maximum achievable throughput under general and
// layered multi-commodity routing). It supports maximization with <=, >=
// and = constraints over non-negative variables. Problem sizes in this
// repository are modest (thousands of variables); the solver favors
// robustness (Bland's anti-cycling rule, explicit two-phase feasibility)
// over speed.
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

const eps = 1e-9

// Solve runs two-phase simplex, returning an optimal solution and its
// objective value.
func (p *Problem) Solve() ([]float64, float64, error) {
	m := len(p.constraints)
	// Normalize to equalities with slack/surplus, rhs >= 0.
	// Columns: structural | slack/surplus | artificial.
	type rowT struct {
		a   []float64
		rhs float64
	}
	nSlack := 0
	for _, c := range p.constraints {
		if c.rel != EQ {
			nSlack++
		}
	}
	totalBase := p.numVars + nSlack
	rows := make([]rowT, m)
	slackIdx := p.numVars
	needArtificial := make([]bool, m)
	for ri, c := range p.constraints {
		a := make([]float64, totalBase)
		for k, idx := range c.idxs {
			a[idx] += c.coeffs[k]
		}
		rhs := c.rhs
		rel := c.rel
		if rhs < 0 {
			for i := range a {
				a[i] = -a[i]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			a[slackIdx] = 1
			// Slack can serve as the initial basic variable.
			slackIdx++
		case GE:
			a[slackIdx] = -1
			slackIdx++
			needArtificial[ri] = true
		case EQ:
			needArtificial[ri] = true
		}
		rows[ri] = rowT{a: a, rhs: rhs}
	}
	nArt := 0
	for _, need := range needArtificial {
		if need {
			nArt++
		}
	}
	total := totalBase + nArt
	// Tableau: m rows × (total + 1) columns (last = rhs).
	tab := make([][]float64, m)
	basis := make([]int, m)
	artCol := totalBase
	// Re-scan to find slack column per row for basis initialization.
	for ri := range rows {
		tab[ri] = make([]float64, total+1)
		copy(tab[ri], rows[ri].a)
		tab[ri][total] = rows[ri].rhs
		if needArtificial[ri] {
			tab[ri][artCol] = 1
			basis[ri] = artCol
			artCol++
		} else {
			// The row's slack coefficient is +1 at some column; find it.
			basis[ri] = -1
			for j := p.numVars; j < totalBase; j++ {
				if rows[ri].a[j] == 1 {
					// Ensure the slack is unique to this row.
					unique := true
					for rj := range rows {
						if rj != ri && rows[rj].a[j] != 0 {
							unique = false
							break
						}
					}
					if unique {
						basis[ri] = j
						break
					}
				}
			}
			if basis[ri] < 0 {
				return nil, 0, errors.New("lp: internal error: no basic column")
			}
		}
	}

	// Phase 1: minimize sum of artificials (= maximize negative sum).
	if nArt > 0 {
		objRow := make([]float64, total+1)
		for j := totalBase; j < total; j++ {
			objRow[j] = -1 // maximize -(sum of artificials)
		}
		// Price out basic artificials.
		reduced := priceOut(objRow, tab, basis)
		if err := iterate(tab, basis, reduced, total); err != nil {
			return nil, 0, err
		}
		// Feasible iff all artificials are (numerically) zero.
		art := 0.0
		for ri, b := range basis {
			if b >= totalBase {
				art += tab[ri][total]
			}
		}
		if art > 1e-6 {
			return nil, 0, ErrInfeasible
		}
		// Drive remaining basic artificials out of the basis if possible.
		for ri, b := range basis {
			if b < totalBase {
				continue
			}
			swapped := false
			for j := 0; j < totalBase; j++ {
				if math.Abs(tab[ri][j]) > eps {
					pivot(tab, basis, ri, j, total)
					swapped = true
					break
				}
			}
			if !swapped {
				// Redundant row; zero it out.
				for j := 0; j <= total; j++ {
					tab[ri][j] = 0
				}
			}
		}
	}

	// Phase 2: original objective; artificial columns are forbidden.
	objRow := make([]float64, total+1)
	copy(objRow, p.objective)
	for j := totalBase; j < total; j++ {
		objRow[j] = math.Inf(-1) // never re-enter
	}
	reduced := priceOut(objRow, tab, basis)
	for j := totalBase; j < total; j++ {
		reduced[j] = math.Inf(-1)
	}
	if err := iterate(tab, basis, reduced, total); err != nil {
		return nil, 0, err
	}

	x := make([]float64, p.numVars)
	for ri, b := range basis {
		if b < p.numVars {
			x[b] = tab[ri][total]
		}
	}
	obj := 0.0
	for i, c := range p.objective {
		obj += c * x[i]
	}
	return x, obj, nil
}

// priceOut computes reduced costs for a maximization objective row given
// the current basis (objective coefficients of basic variables priced out).
func priceOut(objRow []float64, tab [][]float64, basis []int) []float64 {
	total := len(objRow) - 1
	reduced := make([]float64, total+1)
	copy(reduced, objRow)
	for ri, b := range basis {
		cb := objRow[b]
		if cb == 0 || math.IsInf(cb, -1) {
			if math.IsInf(cb, -1) {
				// Basic artificial with -Inf cost: treat as 0 during
				// phase 2 (it is numerically zero-valued after phase 1).
				cb = 0
			} else {
				continue
			}
		}
		if cb == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			reduced[j] -= cb * tab[ri][j]
		}
	}
	return reduced
}

// iterate runs primal simplex pivots (Bland's rule) until optimality.
func iterate(tab [][]float64, basis []int, reduced []float64, total int) error {
	maxIter := 20000 + 50*(len(tab)+total)
	for iter := 0; iter < maxIter; iter++ {
		// Entering variable: smallest index with positive reduced cost.
		enter := -1
		for j := 0; j < total; j++ {
			if reduced[j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Leaving variable: min ratio, ties by smallest basis index (Bland).
		leave := -1
		bestRatio := math.Inf(1)
		for ri := range tab {
			a := tab[ri][enter]
			if a > eps {
				ratio := tab[ri][total] / a
				if ratio < bestRatio-eps || (math.Abs(ratio-bestRatio) <= eps && (leave < 0 || basis[ri] < basis[leave])) {
					bestRatio = ratio
					leave = ri
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		pivot(tab, basis, leave, enter, total)
		// Update reduced costs.
		f := reduced[enter]
		if f != 0 {
			for j := 0; j <= total; j++ {
				reduced[j] -= f * tab[leave][j]
			}
		}
	}
	return errors.New("lp: iteration limit exceeded")
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func pivot(tab [][]float64, basis []int, row, col, total int) {
	pr := tab[row]
	pv := pr[col]
	for j := 0; j <= total; j++ {
		pr[j] /= pv
	}
	for ri := range tab {
		if ri == row {
			continue
		}
		f := tab[ri][col]
		if f == 0 {
			continue
		}
		r := tab[ri]
		for j := 0; j <= total; j++ {
			r[j] -= f * pr[j]
		}
	}
	basis[row] = col
}
