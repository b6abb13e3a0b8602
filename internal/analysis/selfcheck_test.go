package analysis

// selfcheck_test proves the suite against the repository itself, in
// both directions:
//
//   - TestModuleClean: the full suite over the real module reports
//     nothing — every violation is fixed or carries a det:allow, every
//     det:allow suppresses something, non-test internal/netsim imports
//     no sync, and neither it nor internal/mcf imports internal/layers.
//   - TestScratchViolationFlagged: deliberately adding an unsorted
//     map-range in an uncalled function to a scratch copy of
//     internal/routing is flagged — by maprange and by the reachability
//     walk of reach_test.go — and so is a sync.Pool added to the scratch
//     internal/netsim, so a green TestModuleClean and
//     TestEveryFunctionReached are evidence of enforcement, not of
//     checks that never fire.

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// moduleRoot returns the repository root (two levels above this
// package).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
	return root
}

// loadModule type-checks every package of the module rooted at root.
func loadModule(t *testing.T, root string) []*Package {
	t.Helper()
	loader, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// runSuite analyzes pkgs, returning all formatted diagnostics.
func runSuite(pkgs []*Package) []string {
	var out []string
	for _, pkg := range pkgs {
		for _, d := range RunPackage(pkg) {
			out = append(out, d.Format(pkg.Fset))
		}
		// One engine per cell, each single-threaded: a sync.Pool (PR 7's
		// per-engine arenas replaced one) or any other sync primitive in
		// the simulator would couple concurrently running cells. And the
		// consumers of routing tables read routing.Engine: neither the
		// simulator nor the throughput LPs may depend on how layers are
		// constructed.
		var banned []string
		switch {
		case pathMatches(pkg.Path, "internal/netsim"):
			banned = []string{`"sync"`, `"repro/internal/layers"`}
		case pathMatches(pkg.Path, "internal/mcf"):
			banned = []string{`"repro/internal/layers"`}
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if slices.Contains(banned, imp.Path.Value) {
					out = append(out, pkg.Fset.Position(imp.Pos()).String()+": non-test "+pkg.Path+" imports "+strings.Trim(imp.Path.Value, `"`))
				}
			}
		}
	}
	return out
}

func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	for _, d := range runSuite(loadModule(t, moduleRoot(t))) {
		t.Errorf("detlint: %s", d)
	}
}

// copyModuleSources copies go.mod and every non-test .go file of the
// module into dst, preserving layout and skipping testdata trees.
func copyModuleSources(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != src && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScratchViolationFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	scratch := t.TempDir()
	copyModuleSources(t, moduleRoot(t), scratch)

	// Plant an unsorted map-range in the scratch internal/routing.
	planted := filepath.Join(scratch, "internal", "routing", "zz_scratch_violation.go")
	src := `package routing

// scratchFirstKey leaks map iteration order (planted by
// TestScratchViolationFlagged; never committed to the real tree).
func scratchFirstKey(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
`
	if err := os.WriteFile(planted, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a packet pool in the scratch internal/netsim (read by an init,
	// so the reachability walk has nothing to say about it).
	pool := filepath.Join(scratch, "internal", "netsim", "zz_scratch_pool.go")
	src = `package netsim

import "sync"

var scratchPool sync.Pool

func init() { scratchPool.Put(scratchPool.Get()) }
`
	if err := os.WriteFile(pool, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	pkgs := loadModule(t, scratch)
	flagged, pooled := false, false
	for _, d := range runSuite(pkgs) {
		switch {
		case strings.Contains(d, "zz_scratch_violation.go") && strings.Contains(d, "maprange"):
			flagged = true
		case strings.Contains(d, "zz_scratch_pool.go") && strings.Contains(d, "imports sync"):
			pooled = true
		default:
			t.Errorf("unexpected diagnostic in scratch copy: %s", d)
		}
	}
	if !flagged {
		t.Error("planted unsorted map-range in internal/routing was not flagged")
	}
	if !pooled {
		t.Error("planted sync.Pool in internal/netsim was not flagged")
	}
	// Nothing calls the planted function either: the reachability walk
	// (reach_test.go) must name it, and nothing else.
	if got := outsideKeepList(newUseGraph(pkgs).unreachedFunctions()); len(got) != 1 || got[0] != "routing.scratchFirstKey" {
		t.Errorf("unreached functions in scratch copy = %v, want exactly [routing.scratchFirstKey]", got)
	}
}
