package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
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

// TestWriteJSONMatchesMarshalIndent: the hand -json rendering is
// json.MarshalIndent(out, "", "  ") and a newline, byte for byte — file
// names and matrix names that need escapes, results omitted when there are
// none, seconds omitted when zero and written in 'e' form when tiny, NaN
// and infinite summary values — and fails exactly when MarshalIndent
// fails, with its message: on a NaN or an infinity outside a summary.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"", "sweep.json", "examples/scenarios/<a&b>.json", "n\u00e9", "\x01", `q"`}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64, 0.04, 12.5,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	float := func(finite bool) float64 {
		for {
			f := floats[rng.Intn(len(floats))]
			if rng.Intn(2) == 0 {
				f = math.Float64frombits(rng.Uint64())
			}
			if !finite || !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	summary := func() stats.Summary {
		return stats.Summary{N: rng.Intn(100), Mean: float(false), P01: float(false), P10: float(false),
			P50: float(false), P90: float(false), P99: float(false), P999: float(false)}
	}
	for i := 0; i < 500; i++ {
		var out []fileResult
		for range rng.Intn(3) {
			fr := fileResult{
				File: names[rng.Intn(len(names))], Name: names[rng.Intn(len(names))],
				Cells: rng.Intn(500), Skipped: rng.Intn(5), Seconds: float(true),
			}
			switch rng.Intn(3) {
			case 0:
				fr.Results = []scenario.CellResult{}
			case 1:
				for range 1 + rng.Intn(3) {
					fr.Results = append(fr.Results, scenario.CellResult{
						Spec: scenario.Spec{
							Name: names[rng.Intn(len(names))], Topology: scenario.Topology{Kind: "SF", Param: 3},
							Pattern: scenario.Pattern{Kind: "uniform"}, Rho: float(rng.Intn(50) != 0),
						},
						TopoName: names[rng.Intn(len(names))], TopoN: 54, Layers: 2, Rho: float(rng.Intn(50) != 0),
						Flows: 54, Completed: float(rng.Intn(50) != 0), Throughput: summary(), FCT: summary(),
						FailedLinks: rng.Intn(2), MAT: float(rng.Intn(50) != 0) * float64(rng.Intn(2)),
					})
				}
			}
			out = append(out, fr)
		}
		want, wantErr := json.MarshalIndent(out, "", "  ")
		var got bytes.Buffer
		err := writeJSON(&got, out)
		switch {
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Fatalf("writeJSON error %v, MarshalIndent error %v", err, wantErr)
		case err == nil && !bytes.Equal(got.Bytes(), append(want, '\n')):
			t.Fatalf("writeJSON:\n%s\nMarshalIndent:\n%s", got.Bytes(), want)
		}
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
