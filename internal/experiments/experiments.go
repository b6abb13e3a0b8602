// Package experiments regenerates every table and figure of the FatPaths
// evaluation (§IV, §VI, §VII and Appendix D). Each experiment is a named
// runner producing an aligned text table with the same rows/series the
// paper plots. Runners accept an Options struct controlling scale: Quick
// mode (the default for `go test`) uses the small size class and reduced
// sample counts; cmd/experiments can run the paper-scale variants.
//
// Every runner decomposes into independent cells — one topology / routing /
// transport / seed combination each — fanned out over a worker pool
// (internal/exec) and merged in canonical order. Cells draw all randomness
// from seeds folded out of (Options.Seed, cell index), so a runner's output
// is byte-identical for every Parallelism value.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Options control experiment scale and execution: the run context every
// runner hands down unchanged (seed, worker count, observers — see
// exec.Run) plus the two settings only this layer reads.
type Options struct {
	exec.Run
	// Quick selects reduced scale (small topologies, fewer samples).
	Quick bool
	// Cache, when non-nil, backs scenario-driven experiments with the
	// content-addressed result cache (see internal/scenario.Cache): cells
	// already computed under the same canonical identity, seed, and engine
	// fingerprint are read back instead of re-simulated. Output is
	// byte-identical with or without it, by the determinism contract.
	Cache *scenario.Cache
}

// Experiment is one reproducible unit: a figure or table of the paper.
type Experiment struct {
	ID    string // "fig2", "tab4", ...
	Title string
	Run   func(Options) (*stats.Table, error)
}

var registry []Experiment

func register(id, title string, run func(Options) (*stats.Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// Cell is one independent unit of an experiment: it owns a seed folded from
// (Options.Seed, Index), a private RNG derived from that seed, and a row
// sink whose rows are appended to the experiment table in cell-index order.
// A cell must not touch any mutable state shared with other cells.
type Cell struct {
	Index int
	// Seed is exec.FoldSeed(Options.Seed, Index): use it to seed nested
	// deterministic machinery (simulations, fabrics).
	Seed int64
	// Rng is seeded with Seed and private to the cell.
	Rng *rand.Rand

	tab stats.Table
}

// AddRowf appends a row to the cell's slice of the experiment table,
// formatting like stats.Table.AddRowf.
func (c *Cell) AddRowf(cells ...interface{}) { c.tab.AddRowf(cells...) }

// runCells fans n independent cells out over the shared cell loop
// (exec.Cells) and appends each cell's rows to tab in cell order. The first
// failing cell's error aborts the experiment.
func runCells(o Options, tab *stats.Table, n int, fn func(c *Cell) error) error {
	rows, err := exec.Cells(o.Run, n,
		func(i int) string { return fmt.Sprintf("%s#%d", o.Name, i) },
		func(i int) ([][]string, string, error) {
			seed := exec.FoldSeed(o.Seed, uint64(i))
			c := &Cell{Index: i, Seed: seed, Rng: graph.NewRand(seed)}
			err := fn(c)
			return c.tab.Rows, "", err
		})
	if err != nil {
		return err
	}
	for _, rs := range rows {
		tab.Rows = append(tab.Rows, rs...)
	}
	return nil
}

// fmtPct renders a fraction as a percentage string.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
