package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// FabricCache keeps fabrics resident in a scenario.Store bounded to the
// daemon's capacity and keyed by the scenario engine's canonical fabric
// resource key (Spec.FabricKey: the run seed plus the fabric-defining
// axes). What the store does not know is here: the eager table build that
// completes an admission, and the fatpathsd.fabric_cache_* ledger. Evicting
// under concurrent queries is safe: requests in flight hold the evicted
// fabric through their own pointers, and its routing engine is immutable
// once published.
type FabricCache struct {
	store *scenario.Store[*core.Fabric]
	reg   *obs.Registry // instruments built fabrics (routing-core metrics)
	met   *obs.ServeMetrics

	// mu orders the ledger updates of concurrent admissions, so the resident
	// gauge ends at the store's latest census, not at a stale one.
	mu        sync.Mutex
	evictions int64 // of the store's, how many met.FabricEvictions has counted
}

// NewFabricCache returns a cache holding at most capacity fabrics (0 means
// unbounded, as for the store).
func NewFabricCache(capacity int, reg *obs.Registry, met *obs.ServeMetrics) *FabricCache {
	return &FabricCache{store: scenario.NewStore[*core.Fabric](capacity), reg: reg, met: met}
}

// Len returns the resident fabric count.
func (c *FabricCache) Len() int { return c.store.Len() }

// Get returns the resident fabric for the cell's fabric key, building and
// admitting it on a miss. A request that finds the key being built by
// another waits for that build and counts as a hit.
//
// Admission is two steps, so that a full cache never holds one fabric's
// tables more than its capacity: the store builds topology and layers
// (small, and where every failure happens) and makes room, and only then
// does BuildAll materialize every (layer, destination) table on all cores,
// the bulk of a fabric's memory. BuildAll is single-flight, so every
// request waits for it: the daemon's "expensive to build, cheap to query"
// shape, and what makes /whatif shared/invalidated counts independent of
// which destinations earlier queries touched.
func (c *FabricCache) Get(s scenario.Spec, runSeed int64) (*topo.Topology, *core.Fabric, error) {
	built := false
	fab, err := c.store.Get(s.FabricKey(runSeed), func() (*core.Fabric, error) {
		built = true
		_, fab, err := scenario.BuildFabric(s, runSeed, c.reg)
		return fab, err
	})
	if err == nil {
		fab.Fwd.BuildAll(0)
	}
	if c.met != nil {
		if built {
			c.met.FabricMisses.Inc()
			c.mu.Lock()
			ev := c.store.Evictions()
			c.met.FabricEvictions.Add(ev - c.evictions)
			c.evictions = ev
			// The census is taken after this admission's tables are built:
			// of concurrent admissions the last to finish writes the gauges,
			// and by then every resident's tables are counted.
			residents := c.store.Values()
			var bytes int64
			for _, res := range residents {
				bytes += res.Fwd.Stat().Bytes
			}
			c.met.FabricsResident.Set(int64(len(residents)))
			c.met.TableBytes.Set(bytes)
			c.mu.Unlock()
		} else {
			c.met.FabricHits.Inc()
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return fab.Topo, fab, nil
}
