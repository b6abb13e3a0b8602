// Command scenarios runs declarative scenario matrices (internal/scenario)
// from JSON spec files. A spec file holds one Matrix: a base Spec plus
// per-axis value lists and optional skip constraints; the engine expands
// the cross product, folds deterministic seeds per cell, and fans the cells
// out over the parallel experiment runtime.
//
// Usage:
//
//	go run ./cmd/scenarios -spec examples/scenarios/failure_ladder.json
//	go run ./cmd/scenarios -spec examples/scenarios/*.json         # several files
//	go run ./cmd/scenarios -cells -spec sweep.json                 # expansion only
//	go run ./cmd/scenarios -json -seed 7 -spec sweep.json > out.json
//	go run ./cmd/scenarios -metrics -telemetry run.jsonl -spec sweep.json
//	go run ./cmd/scenarios -trace trace.json -spec sweep.json      # Perfetto
//
// The durable sweep runtime (README "Durable sweeps") adds a
// content-addressed result cache and crash-resume via a run journal:
//
//	go run ./cmd/scenarios -cache-dir ~/.fatpaths-cache -spec sweep.json
//	go run ./cmd/scenarios -cache-dir ~/.fatpaths-cache -cells -spec sweep.json  # hit/miss per cell
//	go run ./cmd/scenarios -journal run.journal -spec sweep.json   # crash-safe
//	go run ./cmd/scenarios -resume run.journal -spec sweep.json    # after a crash
//
// Output is byte-identical for every -parallel value at a fixed -seed —
// including with -metrics/-telemetry/-trace on, which only observe (tables
// go to stdout, diagnostics to stderr or files), and including cells
// satisfied from the cache or a resumed journal (replay equals rerun, by
// the determinism contract).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// fileResult is the machine-readable form of one spec file's run (-json).
type fileResult struct {
	File    string                `json:"file"`
	Name    string                `json:"name"`
	Cells   int                   `json:"cells"`
	Skipped int                   `json:"skipped"`
	Results []scenario.CellResult `json:"results,omitempty"`
	Seconds float64               `json:"seconds,omitempty"`
}

func main() {
	var (
		spec              = flag.String("spec", "", "scenario matrix spec file (further files may follow as positional arguments)")
		seed              = flag.Int64("seed", scenario.DefaultSeed, "random seed")
		parallel          = flag.Int("parallel", 0, "worker goroutines (0 = all cores)")
		jsonOut           = flag.Bool("json", false, "emit JSON instead of text tables")
		cells             = flag.Bool("cells", false, "only expand and list the matrix cells, don't simulate")
		cacheDir          = flag.String("cache-dir", "", "content-addressed result cache directory (reused across runs; see README \"Durable sweeps\")")
		noCache           = flag.Bool("no-cache", false, "ignore -cache-dir: simulate every cell and write nothing to the cache")
		journalPth        = flag.String("journal", "", "record completed cells to this run-journal file (crash-safe JSONL)")
		resumePth         = flag.String("resume", "", "resume an interrupted run from this journal: skip recorded cells, append new ones")
		startObs, stopObs = obs.BindFlags(flag.CommandLine, "scenarios")
	)
	flag.Parse()

	files := flag.Args()
	if *spec != "" {
		files = append([]string{*spec}, files...)
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: scenarios -spec <matrix.json> [more.json ...] (see examples/scenarios/)")
		os.Exit(2)
	}
	if err := validateJournalFlags(*journalPth, *resumePth); err != nil {
		os.Exit(stopObs(err))
	}
	if (*resumePth != "" || *journalPth != "") && len(files) != 1 {
		os.Exit(stopObs(fmt.Errorf("-journal/-resume record exactly one run; got %d spec files", len(files))))
	}
	failAfter := 0
	if v := os.Getenv("FATPATHS_FAIL_AFTER"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			os.Exit(stopObs(fmt.Errorf("FATPATHS_FAIL_AFTER must be a positive integer, got %q", v)))
		}
		failAfter = n
	}
	var cache *scenario.Cache
	if *cacheDir != "" && !*noCache {
		var err error
		if cache, err = scenario.OpenCache(*cacheDir); err != nil {
			os.Exit(stopObs(err))
		}
	}

	sinks, err := startObs()
	if err != nil {
		os.Exit(stopObs(err))
	}
	prog := sinks.Progress

	var out []fileResult
	for _, file := range files {
		m, err := loadMatrix(file)
		if err != nil {
			os.Exit(stopObs(err))
		}
		cs, skipped, err := m.Expand()
		if err != nil {
			os.Exit(stopObs(fmt.Errorf("%s: %w", file, err)))
		}
		fr := fileResult{File: file, Name: m.Name, Cells: len(cs), Skipped: skipped}
		if *cells {
			if !*jsonOut {
				status, err := cellStatuses(cs, *seed, cache, *resumePth)
				if err != nil {
					os.Exit(stopObs(err))
				}
				fmt.Printf("# %s — %s: %d cells (%d skipped by constraints)\n", file, m.Name, len(cs), skipped)
				for i, c := range cs {
					if status == nil {
						fmt.Printf("  [%3d] %s\n", i, c.Key())
					} else {
						fmt.Printf("  [%3d] %-4s %s\n", i, status[i], c.Key())
					}
				}
			}
			out = append(out, fr)
			continue
		}
		prog.SetLabel(m.Name)
		var journal *scenario.Journal
		if *resumePth != "" {
			var notes []string
			if journal, notes, err = scenario.ResumeJournal(*resumePth, cs, *seed); err != nil {
				os.Exit(stopObs(err))
			}
			for _, n := range notes {
				fmt.Fprintln(os.Stderr, "scenarios: "+n)
			}
		} else if *journalPth != "" {
			if err := guardJournalOverwrite(*journalPth, cs, *seed); err != nil {
				os.Exit(stopObs(err))
			}
			if journal, err = scenario.CreateJournal(*journalPth, scenario.JournalHeader{
				Name: m.Name, Seed: *seed, SpecHash: scenario.SpecHash(cs, *seed), Cells: len(cs),
			}); err != nil {
				os.Exit(stopObs(err))
			}
		}
		hook := prog.Hook()
		if failAfter > 0 {
			hook = injectCrash(hook, journal, failAfter)
		}
		opts := scenario.RunOptions{
			Run: exec.Run{
				Seed: *seed, Parallelism: *parallel, Name: m.Name, Progress: hook,
				Obs: sinks.Obs, Telemetry: sinks.Telemetry, Tracer: sinks.Tracer,
			},
			Cache: cache, Journal: journal,
		}
		start := time.Now()
		results, err := scenario.RunSpecs(cs, opts)
		prog.Clear()
		if cerr := journal.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			os.Exit(stopObs(fmt.Errorf("%s: %w", file, err)))
		}
		fr.Seconds = time.Since(start).Seconds()
		fr.Results = results
		out = append(out, fr)
		if !*jsonOut {
			title := m.Name
			if title == "" {
				title = file
			}
			fmt.Printf("# %s — %d cells, %d skipped (%.1fs)\n%s\n",
				title, len(cs), skipped, fr.Seconds, scenario.Table(title, results))
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, out); err != nil {
			os.Exit(stopObs(err))
		}
	}
	os.Exit(stopObs(nil))
}

// writeJSON renders the -json output: the file results as one indented
// JSON array and a newline, in one write. The bytes are those
// json.MarshalIndent(out, "", "  ") writes, appended by hand
// (scenario.CellResult.WriteJSON) into one buffer sized up front, with no
// reflection and no compact copy to indent; TestWriteJSONMatchesMarshalIndent
// holds the two together. A non-finite float outside a summary is the
// error MarshalIndent gives.
func writeJSON(w io.Writer, out []fileResult) error {
	n := 0
	for i := range out {
		n += len(out[i].Results)
	}
	e := wire.Encoder{B: make([]byte, 0, 256*(1+len(out))+2560*n), Indent: true}
	if out == nil {
		e.B = append(e.B, "null"...)
	} else {
		e.Open('[')
		for i := range out {
			e.Elem()
			out[i].writeJSON(&e)
		}
		e.Close(']')
	}
	if err := e.Err(); err != nil {
		return err
	}
	_, err := w.Write(append(e.B, '\n'))
	return err
}

// writeJSON appends the file result's encoding/json form to e.
func (fr *fileResult) writeJSON(e *wire.Encoder) {
	e.Open('{')
	e.Key("file")
	e.String(fr.File)
	e.Key("name")
	e.String(fr.Name)
	e.Key("cells")
	e.Int(int64(fr.Cells))
	e.Key("skipped")
	e.Int(int64(fr.Skipped))
	if len(fr.Results) > 0 {
		e.Key("results")
		e.Open('[')
		for i := range fr.Results {
			e.Elem()
			fr.Results[i].WriteJSON(e)
		}
		e.Close(']')
	}
	if fr.Seconds != 0 {
		e.Key("seconds")
		e.Float(fr.Seconds)
	}
	e.Close('}')
}

// loadMatrix reads one Matrix spec file with scenario.DecodeStrict.
func loadMatrix(file string) (*scenario.Matrix, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m scenario.Matrix
	if err := scenario.DecodeStrict(f, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &m, nil
}

// validateJournalFlags rejects -journal together with -resume, in either
// flag order: -resume already keeps appending to the resumed journal, and
// letting -journal name the same (or any) file alongside it invites the
// truncation guardJournalOverwrite exists to prevent.
func validateJournalFlags(journalPth, resumePth string) error {
	if resumePth != "" && journalPth != "" {
		return fmt.Errorf("pass -resume or -journal, not both (-resume keeps appending to the resumed journal)")
	}
	return nil
}

// guardJournalOverwrite refuses to let -journal truncate an existing
// resumable journal of this same run. CreateJournal opens with O_TRUNC,
// so re-running a crashed `-journal run.journal` sweep with the same flag
// — the natural retry — would silently destroy the very progress -resume
// exists to keep. Only a journal whose header matches this run (seed,
// spec hash, engine fingerprint) and which records at least one cell is
// protected; absent files, foreign files, and other runs' journals stay
// overwritable as before.
func guardJournalOverwrite(path string, cs []scenario.Spec, seed int64) error {
	st, err := scenario.ReadJournal(path)
	if err != nil {
		return nil // absent or not a journal: nothing to protect
	}
	resume, _, err := st.Match(cs, seed)
	if err != nil || len(resume) == 0 {
		return nil // a different run's journal, or no progress recorded yet
	}
	return fmt.Errorf("%s already records %d/%d cells of this run; -journal would truncate that progress — use -resume %s to continue, or delete the file to restart",
		path, len(resume), len(cs), path)
}

// cellStatuses builds the -cells dry-run status column: "done" when the
// resume journal records the cell, else "hit" when the result cache's Get
// would hit and "miss" when it would not. Nil (no column) when there is
// neither a cache nor a -resume journal. Read-only: a dry run repairs no
// journal.
func cellStatuses(cs []scenario.Spec, seed int64, cache *scenario.Cache, resumePath string) ([]string, error) {
	if cache == nil && resumePath == "" {
		return nil, nil
	}
	var resume map[string]scenario.CellResult
	if resumePath != "" {
		st, err := scenario.ReadJournal(resumePath)
		if err != nil {
			return nil, err
		}
		if resume, _, err = st.Match(cs, seed); err != nil {
			return nil, err
		}
	}
	status := make([]string, len(cs))
	for i, c := range cs {
		status[i] = "miss"
		if _, done := resume[c.CacheIdentity(seed)]; done {
			status[i] = "done"
		} else if _, _, hit := cache.Get(c, seed); hit {
			status[i] = "hit"
		}
	}
	return status, nil
}

// injectCrash wraps the progress hook with the CI fault injector: once n
// cells have completed (and work remains) the process syncs the journal and
// exits with status 3, simulating a crash or Ctrl-C mid-sweep. The CI
// resume-smoke step uses this to pin kill-then-resume == uninterrupted.
func injectCrash(inner func(done, total int), j *scenario.Journal, n int) func(done, total int) {
	return func(done, total int) {
		if inner != nil {
			inner(done, total)
		}
		if done >= n && done < total {
			j.Sync()
			fmt.Fprintf(os.Stderr, "\nscenarios: FATPATHS_FAIL_AFTER=%d: injected crash after %d/%d cells\n", n, done, total)
			os.Exit(3)
		}
	}
}
