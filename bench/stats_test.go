package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be reordered
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {99, 39.7},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %g, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// One stalled pass must not move the windowed tail: the figure is the
// median over passes of each pass's own percentile.
func TestPassPercentilesIgnoreOneStalledPass(t *testing.T) {
	steady := make([]float64, 100)
	for i := range steady {
		steady[i] = float64(i + 1) // p99 = 99.01
	}
	stalled := make([]float64, 100)
	for i := range stalled {
		stalled[i] = 1e6
	}
	pp := passPercentiles{}
	for _, pass := range [][]float64{steady, stalled, steady, nil, steady} {
		pp.add("p99", pass, 99)
	}
	v, n := pp.value("p99")
	if n != 4 {
		t.Errorf("passes counted = %d, want 4 (the empty pass is skipped)", n)
	}
	if !near(v, 99.01) {
		t.Errorf("windowed p99 = %g, want 99.01", v)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 10.2}, [3]float64{9.875, 10.75, 12.125}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "build", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "run", StartNs: 40, EndNs: 90},
		{ID: 4, Parent: 1, Name: "overlap", StartNs: 80, EndNs: 95}, // 80..90 already covered by "run"
		{ID: 5, Parent: 3, Name: "inner", StartNs: 50, EndNs: 60},   // a grandchild of "cell"
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 20 - 50 - 5, 2: 20, 3: 40, 4: 15, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if !near(byName["cell"], 25e-6) || !near(byName["run"], 40e-6) {
		t.Errorf("selfByName = %v", byName)
	}
}

// The driver reads workloads and metric names from BENCHMARK.json; the
// bench prints them from catalog.go. They must say the same.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %g, bench default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalog %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the catalog", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, catalog %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if seen[d.name] {
				t.Errorf("metric name %q is used twice", d.name)
			}
			seen[d.name] = true
		}
	}
}
