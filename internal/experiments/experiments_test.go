package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func quick() Options { return Options{Quick: true, Run: exec.Run{Seed: 1}} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abl-construction", "abl-randomization", "abl-transport",
		"ext-failures", "ext-mptcp", "ext-tables",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig19", "fig2", "fig20", "fig21", "fig4", "fig6",
		"fig7", "fig8", "fig9", "tab4", "tab5",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), ids())
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("registry[%d]=%s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil || e.ID != "fig4" {
		t.Fatal("fig4 lookup failed")
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown ID must error")
	}
}

func TestFig4Collisions(t *testing.T) {
	tab, err := runFig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 3 topologies x 5 patterns.
	if len(tab.Rows) != 15 {
		t.Fatalf("%d rows, want 15", len(tab.Rows))
	}
	out := tab.String()
	for _, want := range []string{"Clique", "SF", "DF"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in output:\n%s", want, out)
		}
	}
}

func TestFig6MinimalPaths(t *testing.T) {
	tab, err := runFig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 5 topologies + 5 equivalent JFs.
	if len(tab.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(tab.Rows))
	}
}

func TestTable4(t *testing.T) {
	tab, err := runTable4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tab.Rows))
	}
}

func TestTable5AndFig19(t *testing.T) {
	tab, err := runTable5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("tab5: %d rows, want 7", len(tab.Rows))
	}
	tab19, err := runFig19(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab19.Rows) < 10 {
		t.Fatalf("fig19: %d rows", len(tab19.Rows))
	}
}

func TestFig10Cost(t *testing.T) {
	tab, err := runFig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tab.Rows))
	}
}

func TestQueueModel(t *testing.T) {
	sum := QueueModelSample(newTestRand(), 2000, 1<<20, 200, 20_000)
	if sum.Mean <= 0 {
		t.Fatal("model mean must be positive")
	}
	// 1MiB at 10G is ~0.84ms; with load ~0.17 the mean should be close to
	// the unloaded value but above it.
	if sum.Mean < 0.8 || sum.Mean > 3 {
		t.Fatalf("model mean %f ms out of expected band", sum.Mean)
	}
	if sum.P99 < sum.P50 {
		t.Fatal("percentiles out of order")
	}
}

// The packet-simulation experiments are exercised end-to-end (including
// full table content) by the golden-table harness in golden_test.go; the
// heaviest figures additionally run as benchmarks (bench_test.go at the
// repository root) and via cmd/experiments.

// TestMalformedPatternRejected: handSim (the gate the two hand-rolled
// simulation runners funnel through; scenario-backed runners validate in
// internal/scenario) must reject an out-of-range or self-flow pattern with
// a useful error instead of simulating garbage.
func TestMalformedPatternRejected(t *testing.T) {
	spec := scenario.Spec{Topology: scenario.Topology{Kind: "SF", Param: 3}, Layers: 2, Rho: 1}
	sf, err := scenario.BuildTopology(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := traffic.Pattern{Name: "broken", N: sf.N(), Flows: []traffic.Flow{{Src: 0, Dst: int32(sf.N() + 5)}}}
	_, _, err = handSim(quick(), spec, sf, bad)
	if err == nil {
		t.Fatal("out-of-range pattern must be rejected")
	}
	for _, want := range []string{"broken", "out of range"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q should mention %q", err, want)
		}
	}
	self := traffic.Pattern{Name: "selfie", N: sf.N(), Flows: []traffic.Flow{{Src: 3, Dst: 3}}}
	if _, _, err := handSim(quick(), spec, sf, self); err == nil {
		t.Fatal("self-flow pattern must be rejected")
	}
	if _, _, err := handSim(quick(), spec, sf, traffic.Shuffle(sf.N())); err != nil {
		t.Fatalf("well-formed pattern rejected: %v", err)
	}
}

// newTestRand returns a deterministic rng for model tests.
func newTestRand() *rand.Rand { return rand.New(rand.NewSource(7)) }

// TestFig17IncompleteRoundFails: a stencil round that leaves flows
// unfinished at its horizon fails fig17 with an error naming the topology,
// the series and the flow size, instead of entering the horizon into the
// table as the round's time. A 1 µs horizon leaves every round unfinished.
func TestFig17IncompleteRoundFails(t *testing.T) {
	tab, err := fig17(Options{Quick: true, Run: exec.Run{Seed: goldenSeed, Parallelism: 1}}, netsim.Microsecond)
	if err == nil {
		t.Fatalf("fig17 with unfinished rounds rendered a table:\n%s", tab)
	}
	if want := "fig17: DF 20 KB ECMP:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}
