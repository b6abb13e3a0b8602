// Command experiments regenerates the paper's evaluation tables and
// figures. Each experiment prints the same rows/series the corresponding
// figure plots.
//
// Usage:
//
//	go run ./cmd/experiments -list
//	go run ./cmd/experiments -run fig4
//	go run ./cmd/experiments -run all -full -seed 7 -parallel 16
//	go run ./cmd/experiments -run fig13 -json > fig13.json
//	go run ./cmd/experiments -run fig2 -metrics -telemetry run.jsonl
//	go run ./cmd/experiments -run fig12 -trace trace.json -cpuprofile cpu.pb.gz
//
// Quick mode (default) uses small topologies; -full uses the paper's
// N≈10k class where feasible (expect minutes for the simulation figures).
// Experiments decompose into independent cells fanned out over -parallel
// worker goroutines; output is byte-identical for every worker count at a
// fixed seed — including with -metrics/-telemetry/-trace on, which only
// observe (tables go to stdout, diagnostics to stderr or files).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// result is the machine-readable form of one experiment table (-json).
type result struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Seconds float64    `json:"seconds"`
}

func main() {
	var (
		run               = flag.String("run", "", "experiment ID to run (or 'all')")
		list              = flag.Bool("list", false, "list available experiments")
		full              = flag.Bool("full", false, "paper-scale runs instead of quick mode")
		seed              = flag.Int64("seed", scenario.DefaultSeed, "random seed")
		parallel          = flag.Int("parallel", 0, "worker goroutines per experiment (0 = all cores)")
		jsonOut           = flag.Bool("json", false, "emit a JSON array of tables instead of text")
		cacheDir          = flag.String("cache-dir", "", "content-addressed result cache for scenario-backed experiments (see README \"Durable sweeps\")")
		startObs, stopObs = obs.BindFlags(flag.CommandLine, "experiments")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		if *run == "" {
			fmt.Println("\nrun one with: go run ./cmd/experiments -run <id>")
		}
		return
	}

	var todo []experiments.Experiment
	if *run == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(*run)
		if err != nil {
			os.Exit(stopObs(err))
		}
		todo = []experiments.Experiment{e}
	}

	var cache *scenario.Cache
	if *cacheDir != "" {
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

	var results []result
	for _, e := range todo {
		prog.SetLabel(e.ID)
		opts := experiments.Options{
			Run: exec.Run{
				Seed: *seed, Parallelism: *parallel, Name: e.ID, Progress: prog.Hook(),
				Obs: sinks.Obs, Telemetry: sinks.Telemetry, Tracer: sinks.Tracer,
			},
			Quick: !*full, Cache: cache,
		}
		start := time.Now()
		tab, err := e.Run(opts)
		elapsed := time.Since(start).Seconds()
		prog.Clear()
		if err != nil {
			os.Exit(stopObs(fmt.Errorf("%s: %w", e.ID, err)))
		}
		if *jsonOut {
			results = append(results, result{
				ID: e.ID, Title: e.Title,
				Headers: tab.Headers, Rows: tab.Rows,
				Seconds: elapsed,
			})
			continue
		}
		fmt.Printf("# %s — %s (%.1fs)\n%s\n", e.ID, e.Title, elapsed, tab)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			os.Exit(stopObs(err))
		}
	}
	os.Exit(stopObs(nil))
}
