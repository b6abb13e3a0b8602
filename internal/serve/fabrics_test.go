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
	_, fab3, err := c.Get(lruSpec(3), 42)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("resident %d fabrics, want 2", c.Len())
	}
	snap := reg.Snapshot()
	if snap[obs.MetricServeFabricHits] != 1 || snap[obs.MetricServeFabricMisses] != 3 ||
		snap[obs.MetricServeFabricEvicts] != 1 || snap[obs.MetricServeFabricsResident] != 2 {
		t.Fatalf("cache ledger hits/misses/evicts/resident = %d/%d/%d/%d, want 1/3/1/2",
			snap[obs.MetricServeFabricHits], snap[obs.MetricServeFabricMisses],
			snap[obs.MetricServeFabricEvicts], snap[obs.MetricServeFabricsResident])
	}
	if want := fab1.Fwd.Stat().Bytes + fab3.Fwd.Stat().Bytes; snap[obs.MetricServeTableBytes] != want {
		t.Fatalf("table_bytes_resident = %d, want %d (the two survivors' tables)", snap[obs.MetricServeTableBytes], want)
	}
	// The survivors are layers=1 and layers=3: both still answer with the
	// fabric they were admitted with, layers=2 has to be rebuilt.
	if _, again, _ := c.Get(lruSpec(1), 42); again != fab1 {
		t.Fatal("layers=1 was promoted and must have survived the eviction")
	}
	if _, again, _ := c.Get(lruSpec(3), 42); again != fab3 {
		t.Fatal("layers=3 was just admitted and must be resident")
	}
	if _, _, err := c.Get(lruSpec(2), 42); err != nil {
		t.Fatal(err)
	}
	if snap = reg.Snapshot(); snap[obs.MetricServeFabricHits] != 3 || snap[obs.MetricServeFabricMisses] != 4 {
		t.Fatalf("after re-querying: hits/misses = %d/%d, want 3/4 (layers=2 was the one evicted)",
			snap[obs.MetricServeFabricHits], snap[obs.MetricServeFabricMisses])
	}
	// Seed participates in the key: same axes, different run seed, new entry.
	if lruSpec(1).FabricKey(42) == lruSpec(1).FabricKey(43) {
		t.Fatal("fabric key must fold the run seed")
	}
	// The FT alias does not: FT and FT3 are one key, one build, one slot.
	ft, ft3 := lruSpec(1), lruSpec(1)
	ft.Topology, ft3.Topology = scenario.Topology{Kind: "FT", Param: 4}, scenario.Topology{Kind: "FT3", Param: 4}
	_, fabFT, err := c.Get(ft, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, fabFT3, _ := c.Get(ft3, 42); fabFT3 != fabFT || ft.FabricKey(42) != ft3.FabricKey(42) {
		t.Fatalf("FT (%s) and FT3 (%s) must resolve to one resident fabric", ft.FabricKey(42), ft3.FabricKey(42))
	}
	if snap = reg.Snapshot(); snap[obs.MetricServeFabricHits] != 4 || snap[obs.MetricServeFabricMisses] != 5 {
		t.Fatalf("after FT then FT3: hits/misses = %d/%d, want 4/5 (one build for the two names)",
			snap[obs.MetricServeFabricHits], snap[obs.MetricServeFabricMisses])
	}
}

// TestResidentTableFootprint pins what a resident fabric's tables weigh, on
// the two fabrics the benchmark's daemon-steady workload keeps resident at
// the default 9 layers. The candidate totals are those of the int32 CSR
// tables this format replaced (read at its last commit, seed 42): same
// candidate sets, 3.6× and 10× fewer bytes (4 404 and 10 003 B per table
// then). The cache holds one fabric, so the second admission evicts the
// first and the byte gauge must follow.
func TestResidentTableFootprint(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewFabricCache(1, reg, obs.NewServeMetrics(reg))
	for _, f := range []struct {
		topo    scenario.Topology
		tables  int
		cands   int64
		ceiling int64 // bytes per table
	}{
		{scenario.Topology{Kind: "SF", Param: 11}, 9 * 242, 1341447, 1300}, // 242·(1+2·2) = 1 210 B
		{scenario.Topology{Kind: "FT3", Param: 8}, 9 * 320, 5356160, 1000}, // 320·(1+2·1) = 960 B
	} {
		_, fab, err := c.Get(scenario.Spec{Topology: f.topo}, 42)
		if err != nil {
			t.Fatal(err)
		}
		st := fab.Fwd.Stat()
		if st.TablesBuilt != f.tables || st.CandEntries != f.cands {
			t.Errorf("%s: %d tables holding %d candidates, want %d and %d", f.topo.Kind, st.TablesBuilt, st.CandEntries, f.tables, f.cands)
		}
		if per := st.Bytes / int64(st.TablesBuilt); per > f.ceiling {
			t.Errorf("%s: %d bytes per table, ceiling %d", f.topo.Kind, per, f.ceiling)
		}
		if got := reg.Snapshot()[obs.MetricServeTableBytes]; got != st.Bytes {
			t.Errorf("%s resident alone: table_bytes_resident = %d, want %d", f.topo.Kind, got, st.Bytes)
		}
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
	_, fab, err := c.Get(lruSpec(2), 42)
	if err != nil {
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
	if _, again, _ := c.Get(lruSpec(2), 42); c.Len() != 1 || again != fab {
		t.Fatalf("failed builds disturbed residency: %d resident, same fabric %v", c.Len(), again == fab)
	}
}
