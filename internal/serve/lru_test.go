package serve

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func lruSpec(layers int) scenario.Spec {
	return scenario.Spec{
		Topology: scenario.Topology{Kind: "SF", Param: 5},
		Layers:   layers,
		Rho:      0.7,
		Pattern:  scenario.Pattern{Kind: "uniform"},
	}
}

// TestFabricCacheLRU pins admission, recency promotion, and eviction
// order, plus the metrics ledger the daemon's /metrics exposes.
func TestFabricCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewFabricCache(2, reg, obs.NewServeMetrics(reg))

	_, fab1, err := c.Get(lruSpec(1), 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(lruSpec(2), 42); err != nil {
		t.Fatal(err)
	}
	// Promote layers=1, then admit a third key: layers=2 (now LRU) evicts.
	if _, again, err := c.Get(lruSpec(1), 42); err != nil || again != fab1 {
		t.Fatalf("hit must return the resident fabric (err %v)", err)
	}
	if _, _, err := c.Get(lruSpec(3), 42); err != nil {
		t.Fatal(err)
	}
	keys := c.Keys()
	if len(keys) != 2 {
		t.Fatalf("resident %d fabrics, want 2", len(keys))
	}
	want1, want3 := lruSpec(1).FabricKey(42), lruSpec(3).FabricKey(42)
	if keys[0] != want3 || keys[1] != want1 {
		t.Fatalf("keys %v, want [%s %s] (MRU first)", keys, want3, want1)
	}
	snap := reg.Snapshot()
	if snap[obs.MetricServeFabricHits] != 1 || snap[obs.MetricServeFabricMisses] != 3 ||
		snap[obs.MetricServeFabricEvicts] != 1 || snap[obs.MetricServeFabricsResident] != 2 {
		t.Fatalf("cache ledger hits/misses/evicts/resident = %d/%d/%d/%d, want 1/3/1/2",
			snap[obs.MetricServeFabricHits], snap[obs.MetricServeFabricMisses],
			snap[obs.MetricServeFabricEvicts], snap[obs.MetricServeFabricsResident])
	}
	// Seed participates in the key: same axes, different run seed, new entry.
	if lruSpec(1).FabricKey(42) == lruSpec(1).FabricKey(43) {
		t.Fatal("fabric key must fold the run seed")
	}
}

// TestFabricCacheSingleFlight: concurrent requests for one key must share
// one build (one miss admission, every caller handed the same fabric).
func TestFabricCacheSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewFabricCache(2, reg, obs.NewServeMetrics(reg))
	const callers = 16
	fabs := make([]interface{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, fab, err := c.Get(lruSpec(2), 42)
			if err != nil {
				t.Error(err)
				return
			}
			fabs[i] = fab
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if fabs[i] != fabs[0] {
			t.Fatal("concurrent callers received different fabric instances")
		}
	}
	// The instrumented build ran once: routing.tables_built equals one
	// eager BuildAll of 2 layers x 50 destinations.
	if built := reg.Snapshot()[obs.MetricRoutingTablesBuilt]; built != 2*50 {
		t.Fatalf("routing.tables_built = %d, want 100 (one single-flight build)", built)
	}
	if c.Len() != 1 {
		t.Fatalf("resident %d fabrics, want 1", c.Len())
	}
}

// TestFabricCacheBuildError: a spec that fails validation returns its
// error to every waiter but does not stay resident.
func TestFabricCacheBuildError(t *testing.T) {
	c := NewFabricCache(2, nil, nil)
	if _, _, err := c.Get(lruSpec(2), 42); err != nil {
		t.Fatal(err)
	}
	bad := lruSpec(2)
	bad.Topology.Kind = "NOPE"
	for i := 0; i < 2; i++ {
		_, _, err := c.Get(bad, 42)
		if err == nil || !strings.Contains(err.Error(), "NOPE") {
			t.Fatalf("attempt %d: err %v, want unknown-topology error", i, err)
		}
	}
	if c.Len() != 1 || c.Keys()[0] != lruSpec(2).FabricKey(42) {
		t.Fatalf("failed builds disturbed residency: %v", c.Keys())
	}
}
