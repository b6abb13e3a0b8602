package lp

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
	p := New(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.AddConstraint([]int{0, 1}, []float64{1, 3}, LE, 6)
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(obj, 12, 1e-6) {
		t.Fatalf("obj=%f, want 12", obj)
	}
	if !approx(x[0], 4, 1e-6) || !approx(x[1], 0, 1e-6) {
		t.Fatalf("x=%v, want [4 0]", x)
	}
}

func TestClassicDiet(t *testing.T) {
	// max 5x + 4y s.t. 6x+4y <= 24, x+2y <= 6 -> x=3, y=1.5, obj=21.
	p := New(2)
	p.SetObjective(0, 5)
	p.SetObjective(1, 4)
	p.AddConstraint([]int{0, 1}, []float64{6, 4}, LE, 24)
	p.AddConstraint([]int{0, 1}, []float64{1, 2}, LE, 6)
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(obj, 21, 1e-6) || !approx(x[0], 3, 1e-6) || !approx(x[1], 1.5, 1e-6) {
		t.Fatalf("x=%v obj=%f, want [3 1.5] 21", x, obj)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// max x + y s.t. x + y = 5, x <= 3 -> obj 5 with x<=3.
	p := New(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.AddConstraint([]int{0}, []float64{1}, LE, 3)
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(obj, 5, 1e-6) {
		t.Fatalf("obj=%f, want 5", obj)
	}
	if x[0] > 3+1e-6 {
		t.Fatalf("x[0]=%f violates bound", x[0])
	}
}

func TestGEConstraints(t *testing.T) {
	// max -x (i.e. minimize x) s.t. x >= 2 -> x=2.
	p := New(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]int{0}, []float64{1}, GE, 2)
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 2, 1e-6) || !approx(obj, -2, 1e-6) {
		t.Fatalf("x=%v obj=%f, want x=2 obj=-2", x, obj)
	}
}

func TestInfeasible(t *testing.T) {
	p := New(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]int{0}, []float64{1}, LE, 1)
	p.AddConstraint([]int{0}, []float64{1}, GE, 2)
	if _, _, err := p.Solve(); err != ErrInfeasible {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(2)
	p.SetObjective(0, 1)
	p.AddConstraint([]int{1}, []float64{1}, LE, 1)
	if _, _, err := p.Solve(); err != ErrUnbounded {
		t.Fatalf("err=%v, want ErrUnbounded", err)
	}
}

func TestNegativeRHS(t *testing.T) {
	// x - y <= -1 with x,y >= 0: y >= x + 1. max x+y under y <= 3:
	// x=2, y=3 -> obj 5.
	p := New(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint([]int{0, 1}, []float64{1, -1}, LE, -1)
	p.AddConstraint([]int{1}, []float64{1}, LE, 3)
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(obj, 5, 1e-6) || !approx(x[1], 3, 1e-6) {
		t.Fatalf("x=%v obj=%f, want [2 3] 5", x, obj)
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// Beale's classic cycling example (degenerate without Bland's rule).
	p := beale()
	_, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(obj, 0.05, 1e-6) {
		t.Fatalf("obj=%f, want 0.05", obj)
	}
}

func TestMaxFlowAsLP(t *testing.T) {
	// Max flow on a tiny network expressed directly: s->a (cap 3),
	// s->b (2), a->t (2), b->t (3), a->b (10). Max flow = 4...
	// variables: f_sa, f_sb, f_at, f_bt, f_ab.
	p := New(5)
	// maximize flow into t
	p.SetObjective(2, 1)
	p.SetObjective(3, 1)
	// capacities
	caps := []float64{3, 2, 2, 3, 10}
	for i, c := range caps {
		p.AddConstraint([]int{i}, []float64{1}, LE, c)
	}
	// conservation at a: f_sa = f_at + f_ab
	p.AddConstraint([]int{0, 2, 4}, []float64{1, -1, -1}, EQ, 0)
	// conservation at b: f_sb + f_ab = f_bt
	p.AddConstraint([]int{1, 4, 3}, []float64{1, 1, -1}, EQ, 0)
	_, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(obj, 5, 1e-6) {
		// s->a->t carries 2, s->a->b->t carries 1, s->b->t carries 2: 5
		t.Fatalf("max flow obj=%f, want 5", obj)
	}
}

func TestPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := New(1)
	p.AddConstraint([]int{5}, []float64{1}, LE, 1)
}

// denseLP draws a small dense program with integer data: mixed senses,
// negative right-hand sides, and a box so that most instances are bounded.
func denseLP(rng *rand.Rand) *Problem {
	n, m := 2+rng.Intn(7), 2+rng.Intn(7)
	p := New(n)
	idxs := make([]int, n)
	coeffs := make([]float64, n)
	for j := 0; j < n; j++ {
		idxs[j] = j
		p.SetObjective(j, float64(rng.Intn(11)-3))
	}
	for i := 0; i < m; i++ {
		for j := range coeffs {
			coeffs[j] = float64(rng.Intn(10) - 3)
		}
		rel := LE
		if r := rng.Intn(10); r == 0 {
			rel = EQ
		} else if r < 3 {
			rel = GE
		}
		p.AddConstraint(idxs, coeffs, rel, float64(rng.Intn(30)-5))
	}
	if rng.Intn(8) != 0 {
		for j := range coeffs {
			coeffs[j] = 1
		}
		p.AddConstraint(idxs, coeffs, LE, float64(10+rng.Intn(40)))
	}
	return p
}

// pathLP draws a program of mcf.PathMAT's shape: per commodity a zero-rhs
// equality Σ_p x_p − d·T = 0 over a few path variables, per arc a capacity
// row over the paths crossing it, maximize T. Every vertex of it is
// degenerate (all those zero right-hand sides), which is what fig9 solves.
func pathLP(rng *rand.Rand) *Problem {
	comms, arcs := 3+rng.Intn(30), 8+rng.Intn(40)
	users := make([][]int, arcs)
	type eq struct {
		idxs   []int
		coeffs []float64
	}
	var eqs []eq
	v := 0
	for c := 0; c < comms; c++ {
		var e eq
		for k := 1 + rng.Intn(4); k > 0; k-- {
			e.idxs, e.coeffs = append(e.idxs, v), append(e.coeffs, 1)
			for _, a := range rng.Perm(arcs)[:2+rng.Intn(3)] {
				users[a] = append(users[a], v)
			}
			v++
		}
		e.coeffs = append(e.coeffs, -float64(1+rng.Intn(3)))
		eqs = append(eqs, e)
	}
	p := New(v + 1)
	p.SetObjective(v, 1)
	for _, e := range eqs {
		p.AddConstraint(append(e.idxs, v), e.coeffs, EQ, 0)
	}
	for _, u := range users {
		if len(u) == 0 {
			continue
		}
		ones := make([]float64, len(u))
		for i := range ones {
			ones[i] = 1
		}
		p.AddConstraint(u, ones, LE, 1)
	}
	return p
}

// checkFeasible fails unless x >= 0 satisfies every constraint of p to tol.
func checkFeasible(t *testing.T, p *Problem, x []float64, tol float64) {
	t.Helper()
	for j, v := range x {
		if v < -tol {
			t.Fatalf("x[%d]=%g < 0", j, v)
		}
	}
	for i, c := range p.constraints {
		lhs := 0.0
		for k, idx := range c.idxs {
			lhs += c.coeffs[k] * x[idx]
		}
		d := lhs - c.rhs
		if (c.rel != GE && d > tol) || (c.rel != LE && d < -tol) {
			t.Fatalf("constraint %d violated: lhs=%g rel=%d rhs=%g", i, lhs, c.rel, c.rhs)
		}
	}
}

// TestPricingMatchesBland: largest-coefficient pricing with the Bland
// fallback and Bland's rule throughout (the solver before the pricing
// change) must reach the same verdict and the same objective, by whatever
// different routes, and the point returned must be feasible.
func TestPricingMatchesBland(t *testing.T) {
	pivots, blandPivots, solved := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := denseLP(rng)
		if seed%2 == 1 {
			p = pathLP(rng)
		}
		x, obj, n, err := p.solve(blandAfter)
		_, ref, nb, refErr := p.solve(0)
		if err != refErr {
			t.Fatalf("seed %d: err=%v, Bland-only err=%v", seed, err, refErr)
		}
		if err != nil {
			continue
		}
		if !approx(obj, ref, 1e-9) {
			t.Fatalf("seed %d: obj=%.12g, Bland-only obj=%.12g", seed, obj, ref)
		}
		checkFeasible(t, p, x, 1e-7)
		pivots, blandPivots, solved = pivots+n, blandPivots+nb, solved+1
	}
	if solved < 200 {
		t.Fatalf("only %d of 300 programs had an optimum; the generators drifted", solved)
	}
	t.Logf("%d programs: %d pivots, %d under Bland's rule throughout", solved, pivots, blandPivots)
}

// beale is Beale's cycling example: under largest-coefficient pricing with
// smallest-index ratio ties its first six pivots, all degenerate, return to
// the starting basis.
func beale() *Problem {
	p := New(4)
	p.SetObjective(0, 0.75)
	p.SetObjective(1, -150)
	p.SetObjective(2, 0.02)
	p.SetObjective(3, -6)
	p.AddConstraint([]int{0, 1, 2, 3}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]int{0, 1, 2, 3}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]int{2}, []float64{1}, LE, 1)
	return p
}

func TestBealeTerminatesThroughFallback(t *testing.T) {
	// Never falling back: the cycle runs into the iteration limit.
	if _, _, n, err := beale().solve(math.MaxInt); err == nil {
		t.Fatalf("largest-coefficient pricing alone solved Beale's example in %d pivots; it no longer exercises the fallback", n)
	}
	_, obj, n, err := beale().solve(blandAfter)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(obj, 0.05, 1e-9) {
		t.Fatalf("obj=%g, want 0.05", obj)
	}
	if n <= blandAfter {
		t.Fatalf("solved in %d pivots, fewer than the %d degenerate ones that arm the fallback", n, blandAfter)
	}
}
