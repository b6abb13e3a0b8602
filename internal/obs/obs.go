// Package obs is the repository's observability layer: a registry of
// atomic counters, gauges, and fixed-bucket histograms shared by the
// simulator, the routing core, and the scenario/experiment runtimes, plus
// append-only JSONL run telemetry, a bounded Chrome trace_event tracer for
// the simulator's event loop, a unified stderr progress sink, and pprof
// wiring for the CLIs.
//
// Two invariants govern every hook in this package:
//
//   - Deterministic-safe: instrumentation only observes. It never draws
//     from an RNG, reorders work, or feeds back into a simulation, so
//     experiment output is byte-identical with observability on or off.
//   - Near-free when disabled: a nil *Registry yields nil metrics, every
//     metric method is a no-op on a nil receiver, and instrumented
//     components guard their hooks with a single nil check — no
//     allocations, no atomics, no formatting on the disabled path.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-op / zero), which is the disabled fast path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value with a monotone-max mode for
// high-water marks. Nil receivers no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger (high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counts: bucket i
// holds observations v <= bounds[i]; one overflow bucket holds the rest.
// Fixed bounds keep Observe allocation-free and make concurrent merge and
// percentile estimation trivial. Nil receivers no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
	max     atomicFloat
}

// NewHistogram builds a histogram over ascending upper bounds. Use the
// registry's Histogram method instead when the histogram should be shared
// by name.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations (used when flushing local
// per-simulation tallies into a shared histogram).
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.buckets[h.bucket(v)].Add(n)
	h.count.Add(n)
	h.sum.add(v * float64(n))
	h.max.setMax(v)
}

// bucket returns the index of the bucket holding v (binary search; bounds
// lists are short but percentile reads share the helper).
func (h *Histogram) bucket(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.load()
}

// Percentile estimates the p-quantile (p in [0,1]) as the upper bound of
// the bucket containing that rank; ranks landing in the overflow bucket
// report the maximum observation. The estimate is exact when observations
// sit on bucket bounds and otherwise biased at most one bucket upward.
func (h *Histogram) Percentile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max.load()
		}
	}
	return h.max.load()
}

// atomicFloat is a CAS-loop float64 for concurrent sums and maxima.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

func (f *atomicFloat) setMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Registry is a named get-or-create store of metrics. The zero-cost
// disabled path is a nil *Registry: every accessor returns a nil metric
// whose methods no-op. Registration takes a mutex; updates on the returned
// metrics are lock-free atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (disabled) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later callers receive the existing histogram regardless of
// the bounds they pass; a metric name owns one bucket layout.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Dump writes every metric as one aligned text line, sorted by name, so a
// dump at a fixed seed diffs cleanly across runs. Histograms render count,
// mean, p50/p90/p99, and max.
func (r *Registry) Dump(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	type line struct{ name, text string }
	var lines []line
	for n, c := range r.counters {
		lines = append(lines, line{n, fmt.Sprintf("%-44s %d", n, c.Value())})
	}
	for n, g := range r.gauges {
		lines = append(lines, line{n, fmt.Sprintf("%-44s %d", n, g.Value())})
	}
	for n, h := range r.hists {
		lines = append(lines, line{n, fmt.Sprintf("%-44s count=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
			n, h.Count(), h.Mean(), h.Percentile(0.50), h.Percentile(0.90), h.Percentile(0.99), h.Max())})
	}
	r.mu.Unlock()
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		fmt.Fprintln(w, l.text)
	}
}

// Snapshot returns the scalar metrics (counters and gauges) by name —
// enough for tests and telemetry summaries; histograms are reported via
// Dump.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	return out
}
