package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// tinyMatrix is a fast multi-axis matrix on the smallest Slim Fly.
func tinyMatrix() *Matrix {
	return &Matrix{
		Name: "tiny",
		Base: Spec{
			Topology:  Topology{Kind: "SF", Param: 3},
			Pattern:   Pattern{Kind: "uniform"},
			FlowSize:  FlowSize{Bytes: 32 << 10},
			HorizonMs: 1000,
		},
		Axes: Axes{
			Routings:  []string{"fatpaths", "minimal"},
			FailFracs: []float64{0, 0.1},
		},
	}
}

// runTiny expands tinyMatrix and runs every cell.
func runTiny(t *testing.T, run exec.Run) []CellResult {
	t.Helper()
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunSpecs(cells, RunOptions{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestRunDeterministicAcrossParallelism: the rendered scenario table is
// byte-identical at Parallelism 1 and 8 for the same seed.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	serial := runTiny(t, exec.Run{Seed: 7, Parallelism: 1})
	par := runTiny(t, exec.Run{Seed: 7, Parallelism: 8})
	s, p := Table("t", serial).String(), Table("t", par).String()
	if s != p {
		t.Fatalf("parallel differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
	if len(serial) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(serial))
	}
	for _, r := range serial {
		if r.Flows == 0 {
			t.Fatalf("cell %+v simulated no flows", r.Spec)
		}
	}
}

// TestRunSeedChangesResults: a different run seed changes the workload.
func TestRunSeedChangesResults(t *testing.T) {
	a := runTiny(t, exec.Run{Seed: 1, Parallelism: 1})
	b := runTiny(t, exec.Run{Seed: 2, Parallelism: 1})
	if Table("t", a).String() == Table("t", b).String() {
		t.Fatal("distinct seeds produced identical tables")
	}
}

// TestReplicasAggregate: replicas multiply the simulated flow count and
// keep determinism.
func TestReplicasAggregate(t *testing.T) {
	one := Spec{
		Topology:  Topology{Kind: "SF", Param: 3},
		Pattern:   Pattern{Kind: "permutation"},
		FlowSize:  FlowSize{Bytes: 32 << 10},
		HorizonMs: 1000,
	}
	three := one
	three.Replicas = 3
	rs, err := RunSpecs([]Spec{one, three}, RunOptions{Run: exec.Run{Seed: 5, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Flows != 3*rs[0].Flows {
		t.Fatalf("3 replicas simulated %d flows, want 3×%d", rs[1].Flows, rs[0].Flows)
	}
}

// TestReplicasDiffer: replicas of a cell whose workload draws nothing (load
// 0, one fixed size) still differ, because each replicate folds its own
// simulation seed: flowlet salts and layer draws. Were they to repeat one
// simulation, the two-replica sample would be the one-replica sample twice
// over and its mean FCT the same.
func TestReplicasDiffer(t *testing.T) {
	one := Spec{
		Topology:  Topology{Kind: "SF", Param: 3},
		Pattern:   Pattern{Kind: "permutation"},
		FlowSize:  FlowSize{Bytes: 256 << 10},
		HorizonMs: 1000,
	}
	two := one
	two.Replicas = 2
	rs, err := RunSpecs([]Spec{one, two}, RunOptions{Run: exec.Run{Seed: 5, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rs[0].FCT.Mean, rs[1].FCT.Mean
	if math.Abs(a-b) <= 1e-9*a {
		t.Fatalf("mean FCT %v ms over two replicas, %v over one: the replicas repeat one simulation", b, a)
	}
}

// TestFailureModel: FailFrac fails the expected link count and the failed
// set is identical across cells sharing (topology, failFrac).
func TestFailureModel(t *testing.T) {
	rs := runTiny(t, exec.Run{Seed: 3, Parallelism: 1})
	for _, r := range rs {
		if r.Spec.FailFrac == 0 && r.FailedLinks != 0 {
			t.Fatalf("failFrac 0 failed %d links", r.FailedLinks)
		}
		if r.Spec.FailFrac > 0 && r.FailedLinks == 0 {
			t.Fatalf("failFrac %g failed no links", r.Spec.FailFrac)
		}
	}
}

// TestMAT: the MAT option computes a positive throughput bound.
func TestMAT(t *testing.T) {
	s := Spec{
		Topology:  Topology{Kind: "SF", Param: 3},
		Layers:    3,
		Rho:       0.6,
		Pattern:   Pattern{Kind: "worst-case", Intensity: 1},
		FlowSize:  FlowSize{Bytes: 32 << 10},
		HorizonMs: 500,
		MAT:       true,
	}
	rs, err := RunSpecs([]Spec{s}, RunOptions{Run: exec.Run{Seed: 1, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].MAT <= 0 {
		t.Fatalf("MAT = %g, want > 0", rs[0].MAT)
	}
	if tab := Table("t", rs); !strings.Contains(tab.Headers[len(tab.Headers)-1], "MAT") {
		t.Fatal("MAT column missing from table")
	}
}

// TestInvalidSpecRejected: RunSpecs surfaces validation errors with the
// failing cell index.
func TestInvalidSpecRejected(t *testing.T) {
	bad := Spec{Topology: Topology{Kind: "SF", Param: 3}, Pattern: Pattern{Kind: "zipf"}}
	_, err := RunSpecs([]Spec{bad}, RunOptions{Run: exec.Run{Parallelism: 1}})
	if err == nil || !strings.Contains(err.Error(), "cell 0") || !strings.Contains(err.Error(), "zipf") {
		t.Fatalf("invalid spec must fail with cell index and cause, got %v", err)
	}
}

// TestAllPatternKindsCompile: every pattern kind builds and validates on a
// real topology (the compiled-pattern ValidateFlows gate stays green).
func TestAllPatternKindsCompile(t *testing.T) {
	topoSpec := Topology{Kind: "SF", Param: 3}
	tp, err := topoSpec.build(1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Pattern{
		{Kind: "uniform"}, {Kind: "permutation"}, {Kind: "k-permutations", K: 2},
		{Kind: "off-diagonal", Offset: 3}, {Kind: "shuffle"}, {Kind: "stencil"},
		{Kind: "adversarial"}, {Kind: "worst-case", Intensity: 0.7},
		{Kind: "uniform", Randomize: true, Intensity: 0.5},
	}
	for _, ps := range kinds {
		pat, err := ps.build(tp, 9)
		if err != nil {
			t.Fatalf("%s: %v", ps.Kind, err)
		}
		if err := pat.ValidateFlows(); err != nil {
			t.Fatalf("%s: compiled pattern invalid: %v", ps.Kind, err)
		}
	}
}

// TestRunTelemetryAndDeterminism: a fully instrumented RunSpecs (registry,
// JSONL telemetry, tracer) emits a well-formed journal — run_start, one
// cell record per cell carrying its canonical key, run_end — and renders
// the exact table an uninstrumented run does.
func TestRunTelemetryAndDeterminism(t *testing.T) {
	cells, skipped, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("tiny matrix skipped %d cells", skipped)
	}
	plain, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	var telBuf bytes.Buffer
	tracer := obs.NewTracer(50_000_000)
	instrumented, err := RunSpecs(cells, RunOptions{Run: exec.Run{
		Seed: 7, Parallelism: 2, Name: "tiny",
		Obs: reg, Telemetry: obs.NewTelemetry(&telBuf), Tracer: tracer,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if p, i := Table("t", plain).String(), Table("t", instrumented).String(); p != i {
		t.Fatalf("instrumentation changed the table:\n--- plain ---\n%s\n--- instrumented ---\n%s", p, i)
	}

	lines := strings.Split(strings.TrimSpace(telBuf.String()), "\n")
	if want := len(cells) + 2; len(lines) != want {
		t.Fatalf("journal has %d lines, want %d (run_start + cells + run_end)", len(lines), want)
	}
	keys := map[string]bool{}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		switch {
		case i == 0:
			if rec["type"] != "run_start" || rec["name"] != "tiny" || rec["cells"] != float64(len(cells)) {
				t.Fatalf("bad run_start: %v", rec)
			}
		case i == len(lines)-1:
			if rec["type"] != "run_end" {
				t.Fatalf("bad run_end: %v", rec)
			}
		default:
			if rec["type"] != "cell" {
				t.Fatalf("line %d: type %v, want cell", i, rec["type"])
			}
			keys[rec["key"].(string)] = true
		}
	}
	for _, c := range cells {
		if !keys[c.Key()] {
			t.Fatalf("journal missing cell key %q (have %v)", c.Key(), keys)
		}
	}
	if reg.Snapshot()[obs.MetricSimEvents] == 0 {
		t.Fatal("registry attached, but no simulator events counted")
	}
	if tracer.Len() == 0 {
		t.Fatal("tracer attached, but no events recorded (cell 0 should trace)")
	}
}

// TestRunStores runs one matrix under every nil and non-nil case of the
// two stores — {no journal, fresh journal, resumed journal recording k of
// n cells} × {no cache, cold cache, warm cache} — and requires the plain
// run's table, exact cache_hits / cache_misses / cells_resumed counts,
// and a journal that ends recording each of the n cells once. A resumed
// cell reads no cache entry and is not re-journaled.
func TestRunStores(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := Table("t", plain).String()
	n, k := len(cells), 2
	for _, journal := range []string{"none", "fresh", "resume"} {
		for _, cache := range []string{"none", "cold", "warm"} {
			t.Run(journal+"/"+cache, func(t *testing.T) {
				reg := obs.NewRegistry()
				o := RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2, Obs: reg}}
				if cache != "none" {
					o.Cache = openTestCache(t)
				}
				if cache == "warm" {
					for i, c := range cells {
						if _, err := o.Cache.Put(c, 7, plain[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				var path string
				resumed := 0
				switch journal {
				case "fresh":
					o.Journal, path = newTestJournal(t, cells, 7)
				case "resume":
					var j *Journal
					j, path = newTestJournal(t, cells, 7)
					for i := 0; i < k; i++ {
						if err := j.Record(cells[i], 7, plain[i]); err != nil {
							t.Fatal(err)
						}
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if o.Journal, _, err = ResumeJournal(path, cells, 7); err != nil {
						t.Fatal(err)
					}
					resumed = k
				}
				got, err := RunSpecs(cells, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.Journal.Close(); err != nil {
					t.Fatal(err)
				}
				if g := Table("t", got).String(); g != want {
					t.Fatalf("table differs from the plain run:\n--- got ---\n%s\n--- plain ---\n%s", g, want)
				}
				wantHits, wantMisses := 0, 0
				switch cache {
				case "cold":
					wantMisses = n - resumed
				case "warm":
					wantHits = n - resumed
				}
				snap := reg.Snapshot()
				if h, m, r := snap[obs.MetricScenarioCacheHits], snap[obs.MetricScenarioCacheMisses], snap[obs.MetricScenarioCellsResumed]; h != int64(wantHits) || m != int64(wantMisses) || r != int64(resumed) {
					t.Fatalf("hits/misses/resumed = %d/%d/%d, want %d/%d/%d", h, m, r, wantHits, wantMisses, resumed)
				}
				if path == "" {
					return
				}
				st, err := ReadJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(st.Done) != n || st.Duplicates != 0 {
					t.Fatalf("journal records %d cells (%d duplicates), want %d once each", len(st.Done), st.Duplicates, n)
				}
			})
		}
	}
}
