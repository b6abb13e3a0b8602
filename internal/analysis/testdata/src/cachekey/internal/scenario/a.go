// Corpus for the cachekey analyzer: the durable sweep runtime's cache
// and journal keys derive from canonical cell identity, never loop
// indices or wall-clock time. The package poses as internal/scenario
// (import-path suffix match) and stubs its key-forming entry points.
package scenario

import "time"

// Spec, CellResult, Cache, and Journal mirror the real scenario
// package's key-forming surface.
type Spec struct{ Name string }

func (s Spec) CacheIdentity(runSeed int64) string { return s.Name }

type CellResult struct{ V int }

type Cache struct{}

func (c *Cache) Get(s Spec, runSeed int64) (CellResult, int, bool) { return CellResult{}, 0, false }
func (c *Cache) Put(s Spec, runSeed int64, r CellResult) (int, error) {
	return 0, nil
}

type Journal struct{}

func (j *Journal) Record(s Spec, runSeed int64, r CellResult) error { return nil }

func SpecHash(cells []Spec, runSeed int64) string {
	out := ""
	for _, s := range cells {
		out += s.CacheIdentity(runSeed)
	}
	return out
}

// Keying a cell on its loop position couples the cache to enumeration
// order: an edited or reordered matrix addresses the wrong entries.
func badForIndex(cells []Spec, seed int64) []string {
	var out []string
	for i := 0; i < len(cells); i++ {
		out = append(out, SpecHash(cells, seed+int64(i))) // want `cachekey: scenario.SpecHash keys on loop index "i"`
	}
	return out
}

// A slice range key is a positional index too.
func badRangeIndex(j *Journal, cells []Spec, seed int64) {
	for i, c := range cells {
		_ = j.Record(c, int64(i), CellResult{}) // want `scenario.Journal.Record keys on loop index "i"`
	}
}

// The identity itself must not absorb the index either.
func badIdentityIndex(cells []Spec, seed int64) []string {
	var out []string
	for i := range cells {
		out = append(out, cells[i].CacheIdentity(seed^int64(i))) // want `scenario.Spec.CacheIdentity keys on loop index "i"`
	}
	return out
}

// Wall-clock time in key material makes every run a universal miss
// while looking like a working cache.
func badWallClock(c *Cache, s Spec) bool {
	_, _, ok := c.Get(s, time.Now().UnixNano()) // want `scenario.Cache.Get keys on wall-clock time \(time.Now\)`
	return ok
}

func badWallClockPut(c *Cache, s Spec, start time.Time) (int, error) {
	return c.Put(s, int64(time.Since(start)), CellResult{}) // want `scenario.Cache.Put keys on wall-clock time \(time.Since\)`
}

// Range values are the canonical cells themselves: fine.
func goodRangeValue(c *Cache, cells []Spec, seed int64) int {
	n := 0
	for _, s := range cells {
		if _, _, ok := c.Get(s, seed); ok {
			n++
		}
	}
	return n
}

// Indexing by the loop variable passes the element, not the index — the
// index never enters the key material.
func goodElementIndex(c *Cache, cells []Spec, seed int64) int {
	n := 0
	for i := range cells {
		if _, _, ok := c.Get(cells[i], seed); ok {
			n++
		}
	}
	return n
}

// A map key is the resource, not an index: fine.
func goodMapKey(c *Cache, cells map[Spec]bool, seed int64) int {
	n := 0
	for s := range cells {
		if _, _, ok := c.Get(s, seed); ok {
			n++
		}
	}
	return n
}

// Hashing the whole expanded list is order-sensitive by design and
// involves no index.
func goodSpecHash(cells []Spec, seed int64) string { return SpecHash(cells, seed) }

// Deliberate, documented exceptions carry an annotation.
func allowedIndex(cells []Spec, seed int64) []string {
	var out []string
	for i := range cells {
		//det:allow cachekey -- corpus: deliberately index-keyed to exercise suppression
		out = append(out, cells[i].CacheIdentity(int64(i)))
	}
	return out
}
