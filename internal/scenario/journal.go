package scenario

// The append-only run journal of the durable sweep runtime: one JSONL
// file per run, a run_header line followed by one cell_done record per
// completed cell, fsync'd in batches. After a crash or Ctrl-C,
// `cmd/scenarios -resume <journal>` reads the journal back, verifies it
// was recorded from the same spec, seed, and engine fingerprint, skips
// every recorded cell, and merges the recorded rows into the final table
// in canonical cell order — a kill-then-resume run is byte-identical to
// an uninterrupted one (pinned by TestKillResumeEqualsUninterrupted and
// the CI resume-smoke step).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sync"
)

// JournalHeader is the first record of a run journal. It pins everything
// a resume must agree on: the run seed, a digest of the expanded cell
// identities, and the engine fingerprint the results were computed under.
type JournalHeader struct {
	Type string `json:"type"` // "run_header"
	// Name labels the run (the matrix name).
	Name string `json:"name,omitempty"`
	// Seed is the run seed every recorded result was computed at.
	Seed int64 `json:"seed"`
	// SpecHash digests the expanded matrix (SpecHash over the cells).
	SpecHash string `json:"specHash"`
	// Fingerprint is the EngineFingerprint at recording time.
	Fingerprint string `json:"fingerprint"`
	// Cells is the expanded cell count of the matrix.
	Cells int `json:"cells"`
}

// CellDone is one completed-cell record.
type CellDone struct {
	Type string `json:"type"` // "cell_done"
	// Identity is the cell's canonical identity (Spec.CacheIdentity at
	// the run seed) — the key resume matching is defined over.
	Identity string `json:"identity"`
	// Key is the human-readable canonical cell key (Spec.Key), carried
	// for log readability and warnings; matching never uses it.
	Key    string     `json:"key"`
	Result CellResult `json:"result"`
}

// SpecHash digests the canonical identities of an expanded cell list at a
// run seed — the journal's definition of "the same run". Cell order is
// part of the digest: resume merges recorded rows positionally into the
// canonical table order, so a reordered matrix is a different run.
func SpecHash(cells []Spec, runSeed int64) string {
	h := sha256.New()
	for _, s := range cells {
		io.WriteString(h, s.CacheIdentity(runSeed))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// journalFlushEvery is the fsync batch size: every N appended records the
// journal syncs to disk. Small enough that a crash loses at most a few
// cells of progress, large enough that fsync latency stays off the
// per-cell path.
const journalFlushEvery = 8

// Journal appends cell_done records to an open journal file. Appends are
// serialized under a mutex (workers record concurrently) and fsync'd in
// batches of journalFlushEvery plus on Sync/Close. A nil *Journal
// discards everything and records nothing — the disabled path.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	pending int
	done    map[string]CellResult // a resumed journal's records, by cell identity
}

// CreateJournal creates (truncating) a journal at path and writes —
// and immediately syncs — its header.
func CreateJournal(path string, h JournalHeader) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("scenario: creating journal: %w", err)
	}
	h.Type = "run_header"
	if h.Fingerprint == "" {
		h.Fingerprint = EngineFingerprint
	}
	if _, err := f.Write(append(appendHeader(nil, &h), '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("scenario: writing journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("scenario: syncing journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// ResumeJournal reopens the journal of an interrupted run for appending
// (the -resume path). It must match the freshly expanded cells at the run
// seed (JournalState.Match). A torn final line is cut away first, so new
// records never concatenate onto a fragment. The journal returned knows
// the cells it records; RunSpecs merges those without re-running or
// re-journaling them. The notes are for the user, in order: ignored
// records, a repaired torn line, the recorded count.
func ResumeJournal(path string, cells []Spec, runSeed int64) (*Journal, []string, error) {
	st, b, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	done, notes, err := st.Match(cells, runSeed)
	if err != nil {
		return nil, nil, err
	}
	if st.Torn {
		notes = append(notes, "journal has a torn final line (crash mid-append); ignoring and repairing it")
		b = b[:bytes.LastIndexByte(bytes.TrimSuffix(b, []byte{'\n'}), '\n')+1]
		if err := os.Truncate(path, int64(len(b))); err != nil {
			return nil, nil, fmt.Errorf("scenario: truncating torn journal line: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: opening journal: %w", err)
	}
	if b[len(b)-1] != '\n' { // a whole final record that lost only its newline
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("scenario: journal append: %w", err)
		}
	}
	notes = append(notes, fmt.Sprintf("resuming %s — %d/%d cells already recorded", path, len(done), len(cells)))
	return &Journal{f: f, done: done}, notes, nil
}

// recorded returns the cell's result if the journal already records it.
func (j *Journal) recorded(s Spec, runSeed int64) (CellResult, bool) {
	if j == nil || len(j.done) == 0 {
		return CellResult{}, false
	}
	r, ok := j.done[s.CacheIdentity(runSeed)]
	r.Spec = s
	return r, ok
}

// Record appends one cell_done record. Each record is one Write call, so
// a crash tears at most the final line (which readers tolerate and
// ResumeJournal repairs).
func (j *Journal) Record(s Spec, runSeed int64, r CellResult) error {
	if j == nil {
		return nil
	}
	b, err := appendCellDone(make([]byte, 0, 2048), &CellDone{
		Type:     "cell_done",
		Identity: s.CacheIdentity(runSeed),
		Key:      s.Key(),
		Result:   r,
	})
	if err != nil {
		return fmt.Errorf("scenario: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("scenario: journal append: %w", err)
	}
	j.pending++
	if j.pending >= journalFlushEvery {
		j.pending = 0
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("scenario: journal sync: %w", err)
		}
	}
	return nil
}

// Sync flushes pending records to disk.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = 0
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	if err := j.Sync(); err != nil {
		return err
	}
	return j.f.Close()
}

// JournalState is a read-back journal: its header and the deduplicated
// set of recorded cells.
type JournalState struct {
	Header JournalHeader
	// Done maps cell identity to its recorded cell_done (first record
	// wins — by the determinism contract duplicates carry identical
	// results, and first-wins keeps the choice deterministic). A record's
	// Result.Spec is not to be read: the hand reader leaves it zero, and a
	// resume takes each cell's spec from the expanded matrix.
	Done map[string]CellDone
	// Duplicates counts cell_done records dropped as duplicates.
	Duplicates int
	// Torn reports whether the final line was unparseable — the signature
	// of a crash mid-append. The torn line is ignored; everything before
	// it is intact (each record is one line).
	Torn bool
}

// ReadJournal parses a journal file. The first line must be a
// run_header; a corrupt record anywhere but the final line is an error
// (journals are append-only — interior corruption means the file is not
// a journal), while an unparseable final line sets Torn.
func ReadJournal(path string) (*JournalState, error) {
	st, _, err := readJournal(path)
	return st, err
}

// readJournal is ReadJournal, also returning the bytes it parsed.
func readJournal(path string) (*JournalState, []byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: reading journal: %w", err)
	}
	lines := bytes.Split(b, []byte{'\n'})
	// A trailing newline yields one empty final element; drop it.
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("scenario: journal %s is empty", path)
	}
	st := &JournalState{Done: map[string]CellDone{}}
	if err := decodeJSON(lines[0], readHeader, &st.Header); err != nil || st.Header.Type != "run_header" {
		return nil, nil, fmt.Errorf("scenario: journal %s: first line is not a run_header record", path)
	}
	for i, line := range lines[1:] {
		var cd CellDone
		if err := decodeJSON(line, readCellDone, &cd); err != nil || cd.Type != "cell_done" || cd.Identity == "" {
			if i == len(lines)-2 { // final line: tolerate the torn write
				st.Torn = true
				break
			}
			return nil, nil, fmt.Errorf("scenario: journal %s: corrupt record on line %d", path, i+2)
		}
		if _, dup := st.Done[cd.Identity]; dup {
			st.Duplicates++
			continue
		}
		st.Done[cd.Identity] = cd
	}
	return st, b, nil
}

// Match validates the journal against a freshly expanded cell list and
// run seed and splits its records into the resume set and warnings.
// Mismatched seed, spec hash, or engine fingerprint is an error — those
// journals describe a different run and resuming from them would merge
// rows computed under different inputs. Records whose identity appears in
// no expanded cell (a hand-edited or concatenated journal) are warned
// about and ignored; warnings are sorted so their order is deterministic.
func (st *JournalState) Match(cells []Spec, runSeed int64) (map[string]CellResult, []string, error) {
	if st.Header.Fingerprint != EngineFingerprint {
		return nil, nil, fmt.Errorf(
			"scenario: journal was recorded under engine fingerprint %q but this binary is %q (goldens were re-baselined since); re-run without -resume",
			st.Header.Fingerprint, EngineFingerprint)
	}
	if st.Header.Seed != runSeed {
		return nil, nil, fmt.Errorf(
			"scenario: journal was recorded at seed %d but this run requests seed %d; pass -seed %d or re-run without -resume",
			st.Header.Seed, runSeed, st.Header.Seed)
	}
	if got := SpecHash(cells, runSeed); st.Header.SpecHash != got {
		return nil, nil, fmt.Errorf(
			"scenario: journal spec hash %s does not match the expanded matrix (%s): the spec changed since the journal was recorded; use the result cache (-cache-dir) for edited specs, -resume only continues identical runs",
			abbrevHash(st.Header.SpecHash), abbrevHash(got))
	}
	want := make(map[string]bool, len(cells))
	for _, s := range cells {
		want[s.CacheIdentity(runSeed)] = true
	}
	resume := make(map[string]CellResult, len(st.Done))
	var warnings []string
	// Sorted identity order keeps the warning list (and nothing else —
	// resume is a keyed lookup) deterministic.
	for _, id := range slices.Sorted(maps.Keys(st.Done)) {
		cd := st.Done[id]
		if !want[id] {
			warnings = append(warnings, fmt.Sprintf("journal records a cell absent from the expanded matrix (ignored): %s", cd.Key))
			continue
		}
		resume[id] = cd.Result
	}
	return resume, warnings, nil
}

func abbrevHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
