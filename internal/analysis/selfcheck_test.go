package analysis

// selfcheck_test proves the suite against the repository itself, in
// both directions:
//
//   - TestModuleClean: the full suite over the real module reports
//     nothing — every violation is fixed or carries a det:allow.
//   - TestScratchViolationFlagged: deliberately adding an unsorted
//     map-range in an uncalled function to a scratch copy of
//     internal/routing is flagged — by maprange and by the reachability
//     walk of reach_test.go — so a green TestModuleClean and
//     TestEveryFunctionReached are evidence of enforcement, not of
//     checks that never fire.

import (
	"io/fs"
	"os"
	"path/filepath"
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
		for _, d := range RunPackage(pkg, Analyzers()) {
			out = append(out, d.Format(pkg.Fset))
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

	pkgs := loadModule(t, scratch)
	flagged := false
	for _, d := range runSuite(pkgs) {
		if strings.Contains(d, "zz_scratch_violation.go") && strings.Contains(d, "maprange") {
			flagged = true
		} else {
			t.Errorf("unexpected diagnostic in scratch copy: %s", d)
		}
	}
	if !flagged {
		t.Error("planted unsorted map-range in internal/routing was not flagged")
	}
	// Nothing calls the planted function either: the reachability walk
	// (reach_test.go) must name it, and nothing else.
	if got := outsideKeepList(unreachedFunctions(pkgs)); len(got) != 1 || got[0] != "routing.scratchFirstKey" {
		t.Errorf("unreached functions in scratch copy = %v, want exactly [routing.scratchFirstKey]", got)
	}
}
