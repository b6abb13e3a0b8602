package scenario

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

// The durable path's per-layer benchmarks: what a warm re-run (cache
// reads) and a resume (journal read) of a matrix shaped like the
// benchmark's sweep-durable workload cost, with no simulation. One op is
// the whole 480-cell matrix, so ns/op and allocs/op read as one phase of
// one run:
//
//	go test ./internal/scenario -run '^$' -bench 'CacheGetHit|ReadJournal' -benchmem

// durableCells expands the sweep-durable matrix: 4 patterns × 5 routings
// × 3 transports × 2 layer counts × 2 rhos × 2 failFracs on SF q=3.
func durableCells(tb testing.TB) []Spec {
	tb.Helper()
	m := &Matrix{
		Name: "sweep-durable",
		Base: Spec{
			Topology:  Topology{Kind: "SF", Param: 3},
			Pattern:   Pattern{Kind: "uniform"},
			FlowSize:  FlowSize{Bytes: 32 << 10},
			HorizonMs: 100,
		},
		Axes: Axes{
			Patterns:   []Pattern{{Kind: "uniform"}, {Kind: "permutation"}, {Kind: "shuffle"}, {Kind: "adversarial"}},
			Routings:   []string{"fatpaths", "ecmp", "letflow", "minimal", "spray"},
			Transports: []string{"ndp", "tcp", "dctcp"},
			Layers:     []int{2, 4},
			Rhos:       []float64{0.5, 0.9},
			FailFracs:  []float64{0, 0.05},
		},
	}
	cells, _, err := m.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	return cells
}

// syntheticResult fills a CellResult the way a simulated sweep-durable
// cell does — 54 flows on SF(q=3,p=3), summaries over full-precision
// draws, two failed links in the failFrac cells — without simulating.
func syntheticResult(s Spec, rng *rand.Rand) CellResult {
	r := CellResult{
		Spec: s, TopoName: "SF(q=3,p=3)", TopoN: 54, Layers: s.Layers, Rho: s.Rho,
		Flows: 54, Trims: int64(rng.Intn(20)),
	}
	if s.FailFrac > 0 {
		r.FailedLinks = 2
	}
	var thr, fct stats.Sample
	done := 54 - rng.Intn(7)
	for range done {
		thr.Add(1 + 700*rng.Float64())
		fct.Add(0.04 + 40*rng.Float64()*rng.Float64())
	}
	r.Completed = float64(done) / float64(r.Flows)
	r.Throughput, r.FCT = thr.Summarize(), fct.Summarize()
	return r
}

// durableResults pairs each sweep-durable cell with a synthetic result.
func durableResults(tb testing.TB) []CellResult {
	rng := rand.New(rand.NewSource(1))
	var rs []CellResult
	for _, s := range durableCells(tb) {
		rs = append(rs, syntheticResult(s, rng))
	}
	return rs
}

// BenchmarkCacheGetHit is the warm phase's cache work: every cell of the
// matrix read back as a hit.
func BenchmarkCacheGetHit(b *testing.B) {
	const seed = 42
	rs := durableResults(b)
	c, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rs {
		if _, err := c.Put(r.Spec, seed, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range rs {
			if _, _, ok := c.Get(r.Spec, seed); !ok {
				b.Fatal("miss on a cell just put")
			}
		}
	}
}

// BenchmarkReadJournal is the resume phase's journal read: a complete
// journal of the matrix parsed back.
func BenchmarkReadJournal(b *testing.B) {
	const seed = 42
	rs := durableResults(b)
	cells := make([]Spec, len(rs))
	for i, r := range rs {
		cells[i] = r.Spec
	}
	path := filepath.Join(b.TempDir(), "run.journal")
	j, err := CreateJournal(path, JournalHeader{
		Name: "sweep-durable", Seed: seed, SpecHash: SpecHash(cells, seed), Cells: len(cells),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rs {
		if err := j.Record(r.Spec, seed, r); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		st, err := ReadJournal(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Done) != len(rs) {
			b.Fatalf("read %d records of %d", len(st.Done), len(rs))
		}
	}
}
