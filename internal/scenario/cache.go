package scenario

// The content-addressed result cache of the durable sweep runtime. Each
// completed cell's CellResult persists under a key derived from the
// cell's canonical identity (Spec.CacheIdentity: every result-affecting
// field plus the run seed) and the engine fingerprint. The repo's
// determinism contract — byte-identical output at any parallelism and
// build order, pinned by the golden harness and detlint — makes cache hits
// provably exact: two cells with equal identities under one fingerprint
// cannot produce different results, so re-running an edited matrix
// recomputes only cells whose canonical identity changed and repeated runs
// of an unchanged spec are near-free.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// EngineFingerprint versions the simulation engine for the durable
// runtime. Bump it whenever the golden tables are re-baselined — any
// change that alters what a cell computes (transport behavior, routing
// tie-breaks, seed folding, table rendering inputs) invalidates every
// cached result and every resumable journal, and the bump is what makes
// stale entries misses instead of silent wrong answers. Purely
// observational changes (obs, tracing, progress) do not bump it.
const EngineFingerprint = "fatpaths-engine-v4"

// identityKey is the content address of a cell: a hex SHA-256 over the
// engine fingerprint and the cell's canonical identity at the run seed
// (Spec.CacheIdentity). It deliberately involves no cell index, no matrix
// name, and no wall-clock input, so the same cell addresses the same entry
// from any matrix, any enumeration order, and any day.
func identityKey(identity string) string {
	h := sha256.Sum256([]byte(EngineFingerprint + "\n" + identity))
	return hex.EncodeToString(h[:])
}

// cacheEntry is the on-disk form of one cached cell. Fingerprint and
// Identity are stored alongside the result and re-verified on read, so a
// (vanishingly unlikely) hash collision or a hand-edited entry degrades
// to a miss, never to a wrong result.
type cacheEntry struct {
	Fingerprint string     `json:"fingerprint"`
	Identity    string     `json:"identity"`
	Result      CellResult `json:"result"`
}

// Cache is a directory of content-addressed cell results. Entries live
// under <dir>/<key[:2]>/<key>.json (two-level fanout keeps directories
// small at paper-sweep scale). A nil *Cache is the disabled path: Get
// always misses and Put discards. Concurrent readers and writers are
// safe — writes are atomic (temp file + rename) and entries for one key
// are byte-identical by construction, so a lost race rewrites the same
// content.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get looks the cell up, returning its result, the bytes read, and
// whether it hit. Any defect — missing entry, unreadable file, corrupt
// JSON, fingerprint or identity mismatch — is a miss; the cache never
// fails a run. On a hit the requested spec replaces the recorded one in
// the returned result: identity excludes labels and execution knobs, so
// the caller's spec is the authoritative rendering.
func (c *Cache) Get(s Spec, runSeed int64) (CellResult, int, bool) {
	if c == nil {
		return CellResult{}, 0, false
	}
	id := s.CacheIdentity(runSeed)
	b, err := os.ReadFile(c.path(identityKey(id)))
	if err != nil {
		return CellResult{}, 0, false
	}
	var e cacheEntry
	if err := decodeJSON(b, readCacheEntry, &e); err != nil ||
		e.Fingerprint != EngineFingerprint ||
		e.Identity != id {
		return CellResult{}, 0, false
	}
	r := e.Result
	r.Spec = s
	return r, len(b), true
}

// Put persists the cell's result atomically and returns the bytes
// written. Entries are written to a temp file in the final directory and
// renamed into place, so a crash mid-write leaves no torn entry and
// concurrent writers of one key are idempotent.
func (c *Cache) Put(s Spec, runSeed int64, r CellResult) (int, error) {
	if c == nil {
		return 0, nil
	}
	id := s.CacheIdentity(runSeed)
	b, err := appendCacheEntry(make([]byte, 0, 2048), &cacheEntry{
		Fingerprint: EngineFingerprint,
		Identity:    id,
		Result:      r,
	})
	if err != nil {
		return 0, fmt.Errorf("scenario: encoding cache entry: %w", err)
	}
	p := c.path(identityKey(id))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return 0, fmt.Errorf("scenario: cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return 0, fmt.Errorf("scenario: cache: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("scenario: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("scenario: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("scenario: cache write: %w", err)
	}
	return len(b) + 1, nil
}
