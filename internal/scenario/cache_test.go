package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// cacheSpec is a small valid cell for cache unit tests.
func cacheSpec() Spec {
	return Spec{
		Topology:  Topology{Kind: "SF", Param: 3},
		Pattern:   Pattern{Kind: "uniform"},
		FlowSize:  FlowSize{Bytes: 32 << 10},
		HorizonMs: 1000,
	}
}

// TestCacheIdentityCoversResultAffectingFields: every field that changes
// what a cell computes changes its canonical identity, and all the
// variants are mutually distinct.
func TestCacheIdentityCoversResultAffectingFields(t *testing.T) {
	base := cacheSpec()
	variants := map[string]func(*Spec){
		"topology kind":  func(s *Spec) { s.Topology.Kind = "JF" },
		"topology param": func(s *Spec) { s.Topology.Param = 5 },
		"topology class": func(s *Spec) { s.Topology.Class = "2" },
		"pattern":        func(s *Spec) { s.Pattern.Kind = "permutation" },
		"pattern detail": func(s *Spec) { s.Pattern.Randomize = true },
		"routing":        func(s *Spec) { s.Routing = "minimal" },
		"transport":      func(s *Spec) { s.Transport = "tcp" },
		"layers":         func(s *Spec) { s.Layers = 5 },
		"rho":            func(s *Spec) { s.Rho = 0.7 },
		"construction":   func(s *Spec) { s.Construction = "min-interference" },
		"flow size":      func(s *Spec) { s.FlowSize.Bytes = 64 << 10 },
		"flow size kind": func(s *Spec) { s.FlowSize.Kind = "pfabric" },
		"load":           func(s *Spec) { s.Load = 0.5 },
		"failFrac":       func(s *Spec) { s.FailFrac = 0.1 },
		"replicas":       func(s *Spec) { s.Replicas = 3 },
		"horizon":        func(s *Spec) { s.HorizonMs = 2000 },
		"mat":            func(s *Spec) { s.MAT = true },
	}
	seen := map[string]string{base.CacheIdentity(42): "base"}
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	// Deterministic order for failure messages (and maprange hygiene).
	sort.Strings(names)
	for _, name := range names {
		s := base
		variants[name](&s)
		id := s.CacheIdentity(42)
		if prev, dup := seen[id]; dup {
			t.Errorf("changing %q yields the same identity as %q: %s", name, prev, id)
		}
		seen[id] = name
	}
}

// TestCacheIdentityExcludesLabelsAndKnobs: Name is a display label — it
// cannot change results, so it must not change the identity. The run
// seed folds in.
func TestCacheIdentityExcludesLabelsAndKnobs(t *testing.T) {
	base := cacheSpec()
	labeled := base
	labeled.Name = "pretty label"
	if base.CacheIdentity(42) != labeled.CacheIdentity(42) {
		t.Fatal("Name changed the cache identity")
	}
	if base.CacheIdentity(42) == base.CacheIdentity(43) {
		t.Fatal("run seed did not fold into the identity")
	}
	// FT is an alias of FT3, not a second topology: one key, so one cache
	// entry, one fabric, one workload and one set of folded seeds.
	ft, ft3 := base, base
	ft.Topology, ft3.Topology = Topology{Kind: "FT", Param: 4}, Topology{Kind: "FT3", Param: 4}
	if ft.CacheIdentity(42) != ft3.CacheIdentity(42) || ft.FabricKey(42) != ft3.FabricKey(42) ||
		ft.workloadKey() != ft3.workloadKey() {
		t.Fatalf("FT and FT3 specs differ in identity:\n%s\n%s", ft.CacheIdentity(42), ft3.CacheIdentity(42))
	}
	// -0 is 0: a negative zero rho seeds the same fabric and addresses
	// the same cache entry.
	zero, negZero := base, base
	zero.Rho, negZero.Rho = 0, math.Copysign(0, -1)
	if zero.CacheIdentity(42) != negZero.CacheIdentity(42) || zero.FabricKey(42) != negZero.FabricKey(42) {
		t.Fatalf("rho 0 and -0 differ in identity:\n%s\n%s", zero.CacheIdentity(42), negZero.CacheIdentity(42))
	}
}

// openTestCache opens a result cache in a fresh temp dir.
func openTestCache(t testing.TB) *Cache {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheRoundTrip: Put then Get returns the stored result; misses on
// unknown cells and foreign seeds; a nil cache is inert.
func TestCacheRoundTrip(t *testing.T) {
	c := openTestCache(t)
	s := cacheSpec()
	want := CellResult{Spec: s, Flows: 99, FailedLinks: 1}
	n, err := c.Put(s, 42, want)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("Put wrote %d bytes", n)
	}
	got, rn, ok := c.Get(s, 42)
	if !ok || rn != n {
		t.Fatalf("Get: ok=%v read=%d, want hit reading %d bytes", ok, rn, n)
	}
	if got.Flows != want.Flows || got.FailedLinks != want.FailedLinks {
		t.Fatalf("Get returned %+v, want %+v", got, want)
	}
	if _, _, ok := c.Get(s, 43); ok {
		t.Fatal("Get hit under a different run seed")
	}
	var nilCache *Cache
	if _, _, ok := nilCache.Get(s, 42); ok {
		t.Fatal("nil cache hit")
	}
	if _, err := nilCache.Put(s, 42, want); err != nil {
		t.Fatalf("nil cache Put: %v", err)
	}
}

// TestCacheDefectsDegradeToMiss: corrupt JSON and stale fingerprints are
// misses, never wrong answers.
func TestCacheDefectsDegradeToMiss(t *testing.T) {
	c := openTestCache(t)
	s := cacheSpec()
	if _, err := c.Put(s, 42, CellResult{Spec: s, Flows: 5}); err != nil {
		t.Fatal(err)
	}
	p := c.path(identityKey(s.CacheIdentity(42)))

	if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(s, 42); ok {
		t.Fatal("corrupt entry hit")
	}

	// A stale fingerprint (recorded before a golden re-baseline) must miss.
	if _, err := c.Put(s, 42, CellResult{Spec: s, Flows: 5}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(b), EngineFingerprint, "fatpaths-engine-v0", 1)
	if err := os.WriteFile(p, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(s, 42); ok {
		t.Fatal("stale-fingerprint entry hit")
	}
}

// TestWarmCacheByteIdentical: a cold cached run, a warm cached run, and
// an uncached run all render the identical table, and the metrics
// account every cell to the right source.
func TestWarmCacheByteIdentical(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t)

	coldReg := obs.NewRegistry()
	cold, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2, Obs: coldReg}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warmReg := obs.NewRegistry()
	warm, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2, Obs: warmReg}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	want := Table("t", plain).String()
	if got := Table("t", cold).String(); got != want {
		t.Fatalf("cold cached run differs from uncached:\n--- cached ---\n%s\n--- plain ---\n%s", got, want)
	}
	if got := Table("t", warm).String(); got != want {
		t.Fatalf("warm cached run differs from uncached:\n--- cached ---\n%s\n--- plain ---\n%s", got, want)
	}

	coldSnap, warmSnap := coldReg.Snapshot(), warmReg.Snapshot()
	if n := coldSnap[obs.MetricScenarioCacheMisses]; n != int64(len(cells)) {
		t.Fatalf("cold run counted %d misses, want %d", n, len(cells))
	}
	if n := coldSnap[obs.MetricScenarioCacheHits]; n != 0 {
		t.Fatalf("cold run counted %d hits, want 0", n)
	}
	if n := warmSnap[obs.MetricScenarioCacheHits]; n != int64(len(cells)) {
		t.Fatalf("warm run counted %d hits, want %d", n, len(cells))
	}
	if n := warmSnap[obs.MetricScenarioCacheMisses]; n != 0 {
		t.Fatalf("warm run counted %d misses, want 0", n)
	}
	if coldSnap[obs.MetricScenarioCacheBytesOut] == 0 || warmSnap[obs.MetricScenarioCacheBytesIn] == 0 {
		t.Fatal("cache byte counters stayed zero")
	}
}

// TestCachePartialHitsOnEditedMatrix: editing a matrix axis recomputes
// only the cells whose canonical identity changed — the durable runtime's
// headline behavior.
func TestCachePartialHitsOnEditedMatrix(t *testing.T) {
	cache := openTestCache(t)
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2}, Cache: cache}); err != nil {
		t.Fatal(err)
	}

	edited := tinyMatrix()
	edited.Axes.FailFracs = []float64{0, 0.2} // keeps the failFrac-0 cells
	editedCells, _, err := edited.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunSpecs(editedCells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cached, err := RunSpecs(editedCells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2, Obs: reg}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Table("t", cached).String(), Table("t", plain).String(); got != want {
		t.Fatalf("partially cached run differs from uncached:\n--- cached ---\n%s\n--- plain ---\n%s", got, want)
	}
	snap := reg.Snapshot()
	if snap[obs.MetricScenarioCacheHits] != 2 || snap[obs.MetricScenarioCacheMisses] != 2 {
		t.Fatalf("edited matrix: hits=%d misses=%d, want 2/2",
			snap[obs.MetricScenarioCacheHits], snap[obs.MetricScenarioCacheMisses])
	}
}

// FuzzCacheEntry: a cache entry is bytes from disk that a crash, an
// editor or another build may have left in any state. Written as the
// entry file of one cell, whatever they are, Get never panics and hits
// only on an entry that states this engine fingerprint and this cell's
// identity. What a hit writes back through Put is canonical: it reads
// back as a hit with the same result, and writing that result again
// reproduces it byte for byte. Whenever the hand reader takes the bytes,
// json.Unmarshal gives the same value (NaN equal to NaN) with the
// recorded spec taken as raw JSON (unmarshalEntry), so an entry reads the
// same by either path but for the spec, which a hit replaces. The
// committed corpus (testdata/fuzz/FuzzCacheEntry) holds canonical entries
// at a stale and at the current fingerprint (one with an empty-sample
// digest), one with reordered, spaced keys, one with a single reordered
// key, escaped strings, a repeated scalar, summary and result (a later
// summary replaces, a later result merges), a null, 1e2 as an integer, -0
// values, a stale fingerprint, a foreign identity, a torn write, and a
// current entry whose spec is valid JSON but no Spec, which hits.
func FuzzCacheEntry(f *testing.F) {
	const seed = 42
	s := cacheSpec()
	// One directory per fuzzing process: each exec overwrites the entry.
	c := openTestCache(f)
	p := c.path(identityKey(s.CacheIdentity(seed)))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, ok := readCacheEntry(data); ok {
			want, err := unmarshalEntry(data)
			if err != nil {
				t.Fatalf("the hand reader took an entry json.Unmarshal refuses (%v):\n%s", err, data)
			}
			sameValue(t, e, want)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, n, ok := c.Get(s, seed)
		if !ok {
			return
		}
		var head struct {
			Fingerprint string `json:"fingerprint"`
			Identity    string `json:"identity"`
		}
		if err := json.Unmarshal(data, &head); err != nil ||
			head.Fingerprint != EngineFingerprint || head.Identity != s.CacheIdentity(seed) {
			t.Fatalf("hit on an entry stating fingerprint %q identity %q (decode error %v)", head.Fingerprint, head.Identity, err)
		}
		if n != len(data) {
			t.Fatalf("hit reports %d bytes read of %d", n, len(data))
		}
		canonical := putAndRead(t, c, s, seed, r)
		again, _, ok := c.Get(s, seed)
		if !ok {
			t.Fatalf("the entry Put wrote back misses:\n%s", canonical)
		}
		if b := putAndRead(t, c, s, seed, again); !bytes.Equal(b, canonical) {
			t.Fatalf("writing back a canonical entry changed it:\n%s\n%s", canonical, b)
		}
	})
}

// putAndRead stores r as the cell's entry and returns the entry's bytes.
func putAndRead(t *testing.T, c *Cache, s Spec, seed int64, r CellResult) []byte {
	t.Helper()
	if _, err := c.Put(s, seed, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.path(identityKey(s.CacheIdentity(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
