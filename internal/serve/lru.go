package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// FabricCache keeps fabrics resident in an LRU-bounded cache keyed by the
// scenario engine's canonical fabric resource key (Spec.FabricKey: the
// effective seed plus the fabric-defining axes). Builds are single-flight:
// concurrent requests for one key block on one build instead of racing.
// Eviction only drops the cache's reference — in-flight requests keep the
// evicted fabric alive through their own pointers, and a fabric's routing
// engine is immutable-once-published, so evicting under concurrent
// queries is safe.
type FabricCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	reg *obs.Registry // instruments built fabrics (routing-core metrics)
	met *obs.ServeMetrics
}

// fabricEntry is one resident fabric. The once gates the single-flight
// build; errors are cached too (they are deterministic functions of the
// spec, so retrying cannot succeed).
type fabricEntry struct {
	key   string
	once  sync.Once
	build func() (*topo.Topology, *core.Fabric, error)
	topo  *topo.Topology
	fab   *core.Fabric
	err   error
}

// NewFabricCache returns a cache holding at most capacity fabrics
// (minimum 1).
func NewFabricCache(capacity int, reg *obs.Registry, met *obs.ServeMetrics) *FabricCache {
	if capacity < 1 {
		capacity = 1
	}
	return &FabricCache{
		cap:   capacity,
		order: list.New(),
		items: map[string]*list.Element{},
		reg:   reg,
		met:   met,
	}
}

// Len returns the resident entry count.
func (c *FabricCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Get returns the resident fabric for the cell's fabric key, building and
// admitting it on a miss (evicting the least recently used entry when the
// cache is full). The build runs outside the cache lock; a second request
// for the same key blocks on the entry's once, not on unrelated builds.
func (c *FabricCache) Get(s scenario.Spec, runSeed int64) (*topo.Topology, *core.Fabric, error) {
	key := s.FabricKey(runSeed)
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.order.MoveToFront(el)
	} else {
		e := &fabricEntry{key: key}
		e.build = func() (*topo.Topology, *core.Fabric, error) {
			t, fab, err := scenario.BuildFabric(s, runSeed, c.reg)
			if err == nil {
				// Admission materializes every (layer, destination) table on
				// all cores: the daemon's "expensive to build, cheap to
				// query" shape, and what makes /whatif shared/invalidated
				// counts independent of which destinations earlier queries
				// touched.
				fab.Fwd.BuildAll(0)
			}
			return t, fab, err
		}
		el = c.order.PushFront(e)
		c.items[key] = el
		for c.order.Len() > c.cap {
			back := c.order.Back()
			c.order.Remove(back)
			delete(c.items, back.Value.(*fabricEntry).key)
			if c.met != nil {
				c.met.FabricEvictions.Inc()
			}
		}
		if c.met != nil {
			c.met.FabricsResident.Set(int64(c.order.Len()))
		}
	}
	c.mu.Unlock()
	if c.met != nil {
		if ok {
			c.met.FabricHits.Inc()
		} else {
			c.met.FabricMisses.Inc()
		}
	}
	e := el.Value.(*fabricEntry)
	e.once.Do(func() {
		e.topo, e.fab, e.err = e.build()
		e.build = nil
		if e.err != nil {
			// Failed builds (invalid specs) must not occupy LRU capacity or
			// evict healthy fabrics; concurrent waiters still receive the
			// cached error through the entry they already hold.
			c.mu.Lock()
			if cur, ok := c.items[e.key]; ok && cur.Value.(*fabricEntry) == e {
				c.order.Remove(cur)
				delete(c.items, e.key)
				if c.met != nil {
					c.met.FabricsResident.Set(int64(c.order.Len()))
				}
			}
			c.mu.Unlock()
		}
	})
	return e.topo, e.fab, e.err
}
