package scenario

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// newTestJournal creates a journal for cells at seed in a temp dir and
// returns it with its path.
func newTestJournal(t *testing.T, cells []Spec, seed int64) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, JournalHeader{
		Name: "test", Seed: seed, SpecHash: SpecHash(cells, seed), Cells: len(cells),
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

// TestJournalRoundTrip: records written through the journal read back
// with an intact header, no duplicates, and a full resume set.
func TestJournalRoundTrip(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	j, path := newTestJournal(t, cells, 7)
	for i := range cells {
		if err := j.Record(cells[i], 7, CellResult{Spec: cells[i], Flows: 10 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Header.Type != "run_header" || st.Header.Seed != 7 || st.Header.Cells != len(cells) ||
		st.Header.Fingerprint != EngineFingerprint {
		t.Fatalf("bad header: %+v", st.Header)
	}
	if len(st.Done) != len(cells) || st.Duplicates != 0 || st.Torn {
		t.Fatalf("bad state: done=%d dup=%d torn=%v", len(st.Done), st.Duplicates, st.Torn)
	}
	resume, warnings, err := st.Match(cells, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if len(resume) != len(cells) {
		t.Fatalf("resume set has %d cells, want %d", len(resume), len(cells))
	}
	for i := range cells {
		r, ok := resume[cells[i].CacheIdentity(7)]
		if !ok || r.Flows != 10+i {
			t.Fatalf("cell %d: resumed %+v, ok=%v", i, r, ok)
		}
	}
}

// TestJournalTornFinalLine: an interrupted final write is tolerated on
// read and truncated away by AppendJournal, after which appends continue
// cleanly.
func TestJournalTornFinalLine(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	j, path := newTestJournal(t, cells, 7)
	if err := j.Record(cells[0], 7, CellResult{Spec: cells[0], Flows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a record fragment with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"cell_done","identity":"v1|torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn journal must still read: %v", err)
	}
	if !st.Torn || len(st.Done) != 1 {
		t.Fatalf("torn=%v done=%d, want torn with 1 intact record", st.Torn, len(st.Done))
	}

	j2, err := AppendJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Record(cells[1], 7, CellResult{Spec: cells[1], Flows: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || len(st.Done) != 2 {
		t.Fatalf("after repair+append: torn=%v done=%d, want clean with 2 records", st.Torn, len(st.Done))
	}
}

// TestJournalDuplicates: re-recorded cells are counted and dropped,
// first record wins.
func TestJournalDuplicates(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	j, path := newTestJournal(t, cells, 7)
	if err := j.Record(cells[0], 7, CellResult{Spec: cells[0], Flows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(cells[0], 7, CellResult{Spec: cells[0], Flows: 999}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 1 || len(st.Done) != 1 {
		t.Fatalf("dup=%d done=%d, want 1/1", st.Duplicates, len(st.Done))
	}
	if r := st.Done[cells[0].CacheIdentity(7)].Result; r.Flows != 1 {
		t.Fatalf("duplicate overwrote the first record: Flows=%d", r.Flows)
	}
}

// TestJournalUnknownCellsWarn: records no expanded cell matches (a
// hand-edited or concatenated journal) warn and are ignored, and the
// warnings arrive sorted regardless of record order.
func TestJournalUnknownCellsWarn(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	sub := cells[:2]
	j, path := newTestJournal(t, sub, 7)
	// Record the two known cells plus two strangers, strangers first.
	strangerB := cacheSpec()
	strangerB.Load = 0.9
	strangerA := cacheSpec()
	strangerA.Load = 0.8
	for _, s := range []Spec{strangerB, strangerA, sub[0], sub[1]} {
		if err := j.Record(s, 7, CellResult{Spec: s, Flows: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The header's SpecHash covers sub, so Match(sub) proceeds and the
	// strangers surface as warnings.
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	resume, warnings, err := st.Match(sub, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(resume) != 2 {
		t.Fatalf("resume set has %d cells, want 2", len(resume))
	}
	if len(warnings) != 2 {
		t.Fatalf("got %d warnings, want 2: %v", len(warnings), warnings)
	}
	for _, w := range warnings {
		if !strings.Contains(w, "absent from the expanded matrix") {
			t.Fatalf("warning lacks explanation: %q", w)
		}
	}
	if !sort.StringsAreSorted(warnings) {
		t.Fatalf("warnings not sorted: %v", warnings)
	}
}

// TestJournalMismatchErrors: resuming under a different seed, spec, or
// engine fingerprint is an error with an actionable message.
func TestJournalMismatchErrors(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	j, path := newTestJournal(t, cells, 7)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := st.Match(cells, 8); err == nil || !strings.Contains(err.Error(), "seed 7") {
		t.Fatalf("seed mismatch: %v", err)
	}
	edited := cells[:3]
	if _, _, err := st.Match(edited, 7); err == nil || !strings.Contains(err.Error(), "spec hash") {
		t.Fatalf("spec mismatch: %v", err)
	}
	stale := *st
	stale.Header.Fingerprint = "fatpaths-engine-v0"
	if _, _, err := stale.Match(cells, 7); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch: %v", err)
	}
}

// TestJournalCorruptInteriorLine: interior corruption is not a torn
// write — the reader refuses the file, naming the line.
func TestJournalCorruptInteriorLine(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	j, path := newTestJournal(t, cells, 7)
	for i := range cells {
		if err := j.Record(cells[i], 7, CellResult{Spec: cells[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	lines[2] = `{"type":"cell_done","identity":` // corrupt a middle record
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("interior corruption must fail naming the line, got: %v", err)
	}
}

// TestKillResumeEqualsUninterrupted is the tentpole's correctness pin:
// a run killed after K cells and resumed from its journal renders the
// exact table of an uninterrupted run, re-simulating only the missing
// cells.
func TestKillResumeEqualsUninterrupted(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}

	const k = 2
	// "Crash" after k cells: run only a prefix against a journal whose
	// header pins the full matrix (what a killed cmd/scenarios leaves
	// behind).
	j, path := newTestJournal(t, cells, 7)
	if _, err := RunSpecs(cells[:k], RunOptions{Run: exec.Run{Seed: 7, Parallelism: 1}, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	crashed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Optionally tear the final record mid-line, as a real crash can.
	// Each case resumes from its own copy of the crashed journal.
	for _, torn := range []bool{false, true} {
		b := crashed
		if torn {
			b = b[:len(b)-7]
		}
		jpath := filepath.Join(t.TempDir(), "crash.journal")
		if err := os.WriteFile(jpath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if torn != st.Torn {
			t.Fatalf("torn=%v, want %v", st.Torn, torn)
		}
		resume, warnings, err := st.Match(cells, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(warnings) != 0 {
			t.Fatalf("unexpected warnings: %v", warnings)
		}
		wantDone := k
		if torn {
			wantDone = k - 1
		}
		if len(resume) != wantDone {
			t.Fatalf("resume set has %d cells, want %d", len(resume), wantDone)
		}

		j2, err := AppendJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		resumed, err := RunSpecs(cells, RunOptions{
			Run:     exec.Run{Seed: 7, Parallelism: 2, Obs: reg},
			Journal: j2, Resume: resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := Table("t", resumed).String(), Table("t", uninterrupted).String(); got != want {
			t.Fatalf("torn=%v: resumed table differs from uninterrupted:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", torn, got, want)
		}
		if n := reg.Snapshot()[obs.MetricScenarioCellsResumed]; n != int64(wantDone) {
			t.Fatalf("torn=%v: resumed %d cells, want %d", torn, n, wantDone)
		}

		// The completed journal now covers the whole matrix with no
		// duplicate records (resumed cells are not re-journaled).
		final, err := ReadJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if len(final.Done) != len(cells) || final.Duplicates != 0 {
			t.Fatalf("torn=%v: final journal done=%d dup=%d, want %d/0",
				torn, len(final.Done), final.Duplicates, len(cells))
		}
	}
}

// FuzzJournalRead: a journal is bytes from disk that a crash, an editor
// or a concatenation may have left in any state. Whatever they are,
// ReadJournal returns an error or a state that holds its own invariants
// — a run_header, every record keyed by its own non-empty identity —
// and that Match can be asked about; it never panics. The committed
// corpus (testdata/fuzz/FuzzJournalRead) covers the shapes the journal
// tests above build by hand.
func FuzzJournalRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadJournal(path)
		if err != nil {
			return
		}
		if st.Header.Type != "run_header" {
			t.Fatalf("accepted a journal whose header type is %q", st.Header.Type)
		}
		for id, cd := range st.Done {
			if id == "" || id != cd.Identity || cd.Type != "cell_done" {
				t.Fatalf("Done[%q] holds record type %q identity %q", id, cd.Type, cd.Identity)
			}
		}
		// No cells expanded: every record is a stranger, so past the header
		// checks Match must warn once per record and resume nothing.
		resume, warnings, err := st.Match(nil, st.Header.Seed)
		if err == nil && (len(resume) != 0 || len(warnings) != len(st.Done)) {
			t.Fatalf("Match(nil): %d resumed, %d warnings for %d records", len(resume), len(warnings), len(st.Done))
		}
	})
}
