package lp

// SolvePivots is Solve for the external benchmark: the objective and the
// number of pivots the solve took.
func SolvePivots(p *Problem) (float64, int, error) {
	_, obj, pivots, err := p.solve(blandAfter)
	return obj, pivots, err
}
