package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// read — the records before it are intact. (ResumeJournal's repair of the
// torn line is pinned by TestResumeJournal.)
func TestJournalTornFinalLine(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := writeTestJournal(t, cells, 7, 1, tearFinalLine)
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn journal must still read: %v", err)
	}
	if !st.Torn || len(st.Done) != 1 {
		t.Fatalf("torn=%v done=%d, want torn with 1 intact record", st.Torn, len(st.Done))
	}
}

// writeTestJournal writes a closed journal for cells at seed recording the
// first done cells, passes its bytes through edit (a simulated crash; nil
// keeps them), and returns its path.
func writeTestJournal(t *testing.T, cells []Spec, seed int64, done int, edit func([]byte) []byte) string {
	t.Helper()
	j, path := newTestJournal(t, cells, seed)
	for i := 0; i < done; i++ {
		if err := j.Record(cells[i], seed, CellResult{Spec: cells[i], Flows: 1 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// tearFinalLine appends a record fragment with no newline: a crash
// mid-append.
func tearFinalLine(b []byte) []byte {
	return append(b, `{"type":"cell_done","identity":"v1|torn`...)
}

// TestResumeJournal: ResumeJournal continues only the run a journal
// recorded — another seed or an edited spec is an error naming what
// differs and pointing at the way out, and leaves the file alone — and
// otherwise returns a journal that knows its recorded cells. A torn final
// line costs one note and is cut away, and a final record that lost only
// its newline gets it back; either way appends continue cleanly.
func TestResumeJournal(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		cells    []Spec
		seed     int64
		edit     func([]byte) []byte
		errHas   []string // non-nil: ResumeJournal must fail naming each
		tornNote bool
	}{
		{name: "seed mismatch", cells: cells, seed: 8, errHas: []string{"seed 7", "seed 8"}},
		{name: "spec mismatch", cells: cells[:1], seed: 7, errHas: []string{"spec hash", "-cache-dir"}},
		{name: "happy path", cells: cells, seed: 7},
		{name: "torn line", cells: cells, seed: 7, edit: tearFinalLine, tornNote: true},
		{name: "unterminated record", cells: cells, seed: 7, edit: func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTestJournal(t, cells, 7, 1, tc.edit)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			j, notes, err := ResumeJournal(path, tc.cells, tc.seed)
			if tc.errHas != nil {
				if err == nil {
					j.Close()
					t.Fatal("mismatched journal accepted")
				}
				for _, want := range tc.errHas {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error must name %q: %v", want, err)
					}
				}
				if after, _ := os.ReadFile(path); string(after) != string(before) {
					t.Fatal("a refused resume modified the journal")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			wantNotes := []string{fmt.Sprintf("resuming %s — 1/%d cells already recorded", path, len(cells))}
			if tc.tornNote {
				wantNotes = append([]string{"journal has a torn final line (crash mid-append); ignoring and repairing it"}, wantNotes...)
			}
			if !slices.Equal(notes, wantNotes) {
				t.Fatalf("notes = %q, want %q", notes, wantNotes)
			}
			if r, ok := j.recorded(cells[0], 7); !ok || r.Flows != 1 || r.Spec.Key() != cells[0].Key() {
				t.Fatalf("recorded cell 0: %+v, ok=%v", r, ok)
			}
			if _, ok := j.recorded(cells[1], 7); ok {
				t.Fatal("cell 1 reported recorded")
			}
			if err := j.Record(cells[1], 7, CellResult{Spec: cells[1], Flows: 2}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Torn || len(st.Done) != 2 || st.Duplicates != 0 {
				t.Fatalf("after resume+append: torn=%v done=%d dup=%d, want clean with 2 records", st.Torn, len(st.Done), st.Duplicates)
			}
		})
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
		j2, notes, err := ResumeJournal(jpath, cells, 7)
		if err != nil {
			t.Fatal(err)
		}
		// No warnings: the recorded count, after a torn-line note iff torn.
		wantDone, wantNotes := k, 1
		if torn {
			wantDone, wantNotes = k-1, 2
		}
		if n := len(notes); n != wantNotes || !strings.HasSuffix(notes[n-1], fmt.Sprintf(" %d/%d cells already recorded", wantDone, len(cells))) {
			t.Fatalf("torn=%v: notes %q", torn, notes)
		}
		reg := obs.NewRegistry()
		resumed, err := RunSpecs(cells, RunOptions{
			Run:     exec.Run{Seed: 7, Parallelism: 2, Obs: reg},
			Journal: j2,
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
// and that Match can be asked about; it never panics. Whenever the hand
// reader takes a line, json.Unmarshal gives the same value (NaN equal to
// NaN) with the recorded spec taken as raw JSON (unmarshalRecord), so a
// journal reads the same by either path but for the specs, which a resume
// replaces. The committed corpus (testdata/fuzz/FuzzJournalRead) covers
// the shapes the journal tests above build by hand, and lines at the
// current fingerprint: canonical, with escaped strings, a reordered key,
// a repeated scalar, summary and result, a null, 1e2 as an integer, -0
// values, a torn final line and a record whose spec is valid JSON but no
// Spec.
func FuzzJournalRead(f *testing.F) {
	// One directory per fuzzing process: each exec overwrites the journal.
	path := filepath.Join(f.TempDir(), "fuzz.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, line := range bytes.Split(data, []byte{'\n'}) {
			if i == 0 {
				if h, ok := readHeader(line); ok {
					var want JournalHeader
					if err := json.Unmarshal(line, &want); err != nil {
						t.Fatalf("the hand reader took a header json.Unmarshal refuses (%v):\n%s", err, line)
					}
					sameValue(t, h, want)
				}
			} else if cd, ok := readCellDone(line); ok {
				want, err := unmarshalRecord(line)
				if err != nil {
					t.Fatalf("the hand reader took a record json.Unmarshal refuses (%v):\n%s", err, line)
				}
				sameValue(t, cd, want)
			}
		}
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
