package main

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/scenario"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the -json golden under testdata/")

// TestJSONGolden runs one example spec at seed 42 and compares its -json
// rendering, wall-clock seconds zeroed, with the committed golden: the
// bytes of the machine-readable output (field names, order, indentation,
// number forms, the NaN/Inf-safe summaries) are pinned, not only the
// values. Regenerate with -update after an intentional engine change.
func TestJSONGolden(t *testing.T) {
	const file = "examples/scenarios/pfabric_load.json"
	m, err := loadMatrix(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	cs, skipped, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, err := scenario.RunSpecs(cs, scenario.RunOptions{Run: exec.Run{Seed: 42, Name: m.Name}})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	out := []fileResult{{File: file, Name: m.Name, Cells: len(cs), Skipped: skipped, Results: results}}
	if err := writeJSON(&got, out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "pfabric_load.json.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("-json output differs from %s:\n%s", golden, got.Bytes())
	}
}

// BenchmarkRenderJSON is the -json render of a warm or resumed run of a
// matrix shaped like the benchmark's sweep-durable workload: 480 cells on
// SF q=3 with synthetic results (54 flows, full-precision summaries), no
// simulation. One op is one render.
//
//	go test ./cmd/scenarios -run '^$' -bench RenderJSON -benchmem
func BenchmarkRenderJSON(b *testing.B) {
	m := &scenario.Matrix{
		Name: "sweep-durable",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "SF", Param: 3},
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 32 << 10},
			HorizonMs: 100,
		},
		Axes: scenario.Axes{
			Patterns:   []scenario.Pattern{{Kind: "uniform"}, {Kind: "permutation"}, {Kind: "shuffle"}, {Kind: "adversarial"}},
			Routings:   []string{"fatpaths", "ecmp", "letflow", "minimal", "spray"},
			Transports: []string{"ndp", "tcp", "dctcp"},
			Layers:     []int{2, 4},
			Rhos:       []float64{0.5, 0.9},
			FailFracs:  []float64{0, 0.05},
		},
	}
	cs, _, err := m.Expand()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	results := make([]scenario.CellResult, len(cs))
	for i, s := range cs {
		var thr, fct stats.Sample
		for range 54 {
			thr.Add(700 * rng.Float64())
			fct.Add(40 * rng.Float64() * rng.Float64())
		}
		results[i] = scenario.CellResult{
			Spec: s, TopoName: "SF(q=3,p=3)", TopoN: 54, Layers: s.Layers, Rho: s.Rho,
			Flows: 54, Completed: 1, Throughput: thr.Summarize(), FCT: fct.Summarize(),
		}
	}
	out := []fileResult{{File: "sweep-durable.json", Name: m.Name, Cells: len(cs), Results: results, Seconds: 0.04}}
	b.ReportAllocs()
	for b.Loop() {
		if err := writeJSON(io.Discard, out); err != nil {
			b.Fatal(err)
		}
	}
}
