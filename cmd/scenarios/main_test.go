package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// runAsCommand, when set in the environment, makes the test binary run
// main instead of the tests, so a test can execute the command end to end,
// including its exit path.
const runAsCommand = "SCENARIOS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) != "" {
		main()
	}
	os.Exit(m.Run())
}

// TestFailingRunKeepsObsOutput: a run that fails after the observability
// sinks started still writes its CPU profile, trace and metrics, since
// those are what someone debugging the failure needs.
func TestFailingRunKeepsObsOutput(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "bad.json")
	// A MAT cell on a one-router star has no inter-router flows: the run
	// fails inside the cell loop.
	bad := `{"base":{"topology":{"kind":"Star","param":4},"pattern":{"kind":"permutation"},"flowSize":{"bytes":1024},"horizonMs":10,"mat":true}}`
	if err := os.WriteFile(spec, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	prof, trace := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "trace.json")
	cmd := exec.Command(os.Args[0], "-spec", spec, "-cpuprofile", prof, "-trace", trace, "-metrics", "-quiet")
	cmd.Env = append(os.Environ(), runAsCommand+"=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v\n%s", err, out)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("CPU profile missing or empty (%v)\n%s", err, out)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("trace file missing: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "# metrics") {
		t.Errorf("no metrics dump on stderr:\n%s", out)
	}
}

// testCells expands a tiny matrix for CLI-level resume tests.
func testCells(t *testing.T) []scenario.Spec {
	t.Helper()
	m := &scenario.Matrix{
		Name: "cli-test",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "SF", Param: 3},
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 32 << 10},
			HorizonMs: 1000,
		},
		Axes: scenario.Axes{Routings: []string{"fatpaths", "minimal"}},
	}
	cells, _, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// writeJournal creates a journal for cells at seed, recording the first
// done cells, and returns its path.
func writeJournal(t *testing.T, cells []scenario.Spec, seed int64, done int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := scenario.CreateJournal(path, scenario.JournalHeader{
		Name: "cli-test", Seed: seed, SpecHash: scenario.SpecHash(cells, seed), Cells: len(cells),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < done; i++ {
		if err := j.Record(cells[i], seed, scenario.CellResult{Spec: cells[i], Flows: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalResumeFlagConflict: -journal plus -resume is rejected in
// both command-line orderings — the conflict must not depend on which
// flag the shell saw first.
func TestJournalResumeFlagConflict(t *testing.T) {
	for _, argv := range [][]string{
		{"-journal", "run.journal", "-resume", "run.journal"},
		{"-resume", "run.journal", "-journal", "run.journal"},
	} {
		fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
		journal := fs.String("journal", "", "")
		resume := fs.String("resume", "", "")
		if err := fs.Parse(argv); err != nil {
			t.Fatal(err)
		}
		if err := validateJournalFlags(*journal, *resume); err == nil {
			t.Fatalf("argv %v: both flags accepted", argv)
		}
	}
	if err := validateJournalFlags("run.journal", ""); err != nil {
		t.Fatalf("-journal alone rejected: %v", err)
	}
	if err := validateJournalFlags("", "run.journal"); err != nil {
		t.Fatalf("-resume alone rejected: %v", err)
	}
}

// TestGuardJournalOverwrite: re-running a crashed sweep with the same
// -journal flag must not truncate the recorded progress (CreateJournal
// opens O_TRUNC) — the guard turns it into an error pointing at -resume,
// and leaves the journal bytes untouched. Journals of other runs and
// non-journal files stay overwritable.
func TestGuardJournalOverwrite(t *testing.T) {
	cells := testCells(t)
	path := writeJournal(t, cells, 7, 1)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	guardErr := guardJournalOverwrite(path, cells, 7)
	if guardErr == nil {
		t.Fatal("same-run re-journal accepted; O_TRUNC would destroy 1 recorded cell")
	}
	if !strings.Contains(guardErr.Error(), "-resume") || !strings.Contains(guardErr.Error(), "1/2") {
		t.Fatalf("guard error must point at -resume and count progress: %v", guardErr)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("guard modified the journal it protects")
	}
	// The blocked retry's escape hatch really works: -resume on the same
	// file sees the recorded cell.
	j, notes, err := scenario.ResumeJournal(path, cells, 7)
	if err != nil || !strings.HasSuffix(notes[len(notes)-1], " 1/2 cells already recorded") {
		t.Fatalf("resume after guard: notes %q, err %v", notes, err)
	}
	j.Close()

	// A different run's journal (other seed) is not this run's progress.
	if err := guardJournalOverwrite(path, cells, 8); err != nil {
		t.Fatalf("foreign-seed journal blocked: %v", err)
	}
	// A fully completed journal is still protected progress.
	full := writeJournal(t, cells, 7, len(cells))
	if guardJournalOverwrite(full, cells, 7) == nil {
		t.Fatal("completed journal accepted for truncation")
	}
	// Header-only journals (crash before any cell) and non-journal files
	// carry nothing to protect.
	empty := writeJournal(t, cells, 7, 0)
	if err := guardJournalOverwrite(empty, cells, 7); err != nil {
		t.Fatalf("empty journal blocked: %v", err)
	}
	junk := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(junk, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := guardJournalOverwrite(junk, cells, 7); err != nil {
		t.Fatalf("non-journal file blocked: %v", err)
	}
	if err := guardJournalOverwrite(filepath.Join(t.TempDir(), "absent"), cells, 7); err != nil {
		t.Fatalf("absent file blocked: %v", err)
	}
}

// TestCellStatuses: the -cells dry-run column reports done (journal),
// hit (cache), and miss, and stays absent with neither flag.
func TestCellStatuses(t *testing.T) {
	cells := testCells(t)
	if status, err := cellStatuses(cells, 7, nil, ""); err != nil || status != nil {
		t.Fatalf("no cache/resume: status=%v err=%v, want nil column", status, err)
	}

	dir := t.TempDir()
	cache, err := scenario.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Put(cells[1], 7, scenario.CellResult{Spec: cells[1]}); err != nil {
		t.Fatal(err)
	}
	journal := writeJournal(t, cells, 7, 1)
	status, err := cellStatuses(cells, 7, cache, journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(status) != 2 || status[0] != "done" || status[1] != "hit" {
		t.Fatalf("status = %v, want [done hit]", status)
	}
	status, err = cellStatuses(cells, 7, cache, "")
	if err != nil {
		t.Fatal(err)
	}
	if status[0] != "miss" || status[1] != "hit" {
		t.Fatalf("status = %v, want [miss hit]", status)
	}

	// A file at the entry's path that Get would not take lists as a miss,
	// as the run would treat it.
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entry files %v (%v), want one", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("not an entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, err = cellStatuses(cells, 7, cache, "")
	if err != nil {
		t.Fatal(err)
	}
	if status[0] != "miss" || status[1] != "miss" {
		t.Fatalf("status = %v, want [miss miss]", status)
	}
}

// TestLoadMatrixRejectsRetiredKnob: "shards" and "seed" are no longer spec
// fields, and the strict decoder must say so by name rather than silently
// ignore a knob an old spec file still carries.
func TestLoadMatrixRejectsRetiredKnob(t *testing.T) {
	for _, knob := range []string{"shards", "seed"} {
		path := filepath.Join(t.TempDir(), "old.json")
		spec := `{"name":"old","base":{"topology":{"kind":"SF","param":3},"pattern":{"kind":"uniform"},"` + knob + `":2}}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadMatrix(path)
		if err == nil || !strings.Contains(err.Error(), `"`+knob+`"`) {
			t.Fatalf("loadMatrix error = %v, want an unknown-field error naming %q", err, knob)
		}
	}
}

// TestLoadMatrixRejectsTrailingData: a spec file holds one matrix. A second
// value, or junk, after it is an error rather than silently dropped;
// trailing whitespace is fine.
func TestLoadMatrixRejectsTrailingData(t *testing.T) {
	const m = `{"name":"one","base":{"topology":{"kind":"SF","param":3},"pattern":{"kind":"uniform"}}}`
	for _, c := range []struct {
		spec, want string // want is "" when the file must load
	}{
		{m + "\n\t \n", ""},
		{m + "\n" + m + "\n", "more than one JSON value"},
		{m + " junk", "after the JSON value"},
		{m + "}", "after the JSON value"},
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(c.spec), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadMatrix(path)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("loadMatrix(%q) error = %v, want %q", c.spec, err, c.want)
		}
	}
}
