package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// passPercentiles collects, per metric name, one percentile per pass
// (window) of a run; the reported figure is the median over passes, a tail
// estimate that one stalled pass cannot move.
type passPercentiles map[string][]float64

func (pp passPercentiles) add(name string, pass []float64, p float64) {
	if len(pass) > 0 {
		pp[name] = append(pp[name], percentile(pass, p))
	}
}

func (pp passPercentiles) value(name string) (v float64, passes int) {
	return median(pp[name]), len(pp[name])
}

func (pp passPercentiles) report(o *outcome) {
	for name := range pp {
		v, n := pp.value(name)
		o.set(name, v, n)
	}
}

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method), so
// the spreads printed here are the ones the benchmark driver computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run steadiness figure the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// span is one timed call into a layer, recorded by bench-owned code around
// the call (never inside the program). Parent is the ID of the span that
// caused it, 0 for a root; spans of one cell or request share Cell.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
}

// selfTimes maps each span ID to its self time in nanoseconds: its
// duration minus the part of that interval its direct children cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, edge), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return out
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}
