package analysis

// readme_test holds the README "Package dependency graph" to the real
// one: the fenced block under that heading must list, for every package
// under cmd/ and internal/ that imports anything from the module, exactly
// the internal packages its non-test files import. A package the block
// does not list imports nothing from the module.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// importGraph maps every package directory under root/cmd and
// root/internal (named as the README names it: "cmd/x" or, for
// internal/x, "x") to the sorted internal packages its non-test files
// import. Packages importing none are absent.
func importGraph(t *testing.T, root string) map[string][]string {
	t.Helper()
	graph := map[string][]string{}
	fset := token.NewFileSet()
	for _, top := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			pkg := strings.TrimPrefix(filepath.ToSlash(rel), "internal/")
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if dep, ok := strings.CutPrefix(path, "repro/internal/"); ok && !slices.Contains(graph[pkg], dep) {
					graph[pkg] = append(graph[pkg], dep)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, deps := range graph {
		slices.Sort(deps)
	}
	return graph
}

// readmeGraph parses the fenced block under the README heading: one
// "pkg → dep, dep, ..." entry per line, blank lines between groups.
func readmeGraph(t *testing.T, root string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(data), "### Package dependency graph\n")
	if !ok {
		t.Fatal(`README.md has no "### Package dependency graph" heading`)
	}
	_, after, ok = strings.Cut(after, "\n```\n")
	block, _, ok2 := strings.Cut(after, "\n```")
	if !ok || !ok2 {
		t.Fatal("README.md: no fenced block under the dependency-graph heading")
	}
	graph := map[string][]string{}
	for _, entry := range strings.Split(block, "\n") {
		if strings.TrimSpace(entry) == "" {
			continue
		}
		pkg, deps, ok := strings.Cut(entry, "→")
		pkg = strings.TrimSpace(pkg)
		if !ok || graph[pkg] != nil {
			t.Fatalf("README dependency graph: entry %q is not a single `pkg → deps` (or repeats %s)", entry, pkg)
		}
		for _, dep := range strings.Split(deps, ",") {
			graph[pkg] = append(graph[pkg], strings.TrimSpace(dep))
		}
		slices.Sort(graph[pkg])
	}
	return graph
}

func TestReadmeDependencyGraph(t *testing.T) {
	root := moduleRoot(t)
	real, drawn := importGraph(t, root), readmeGraph(t, root)
	if len(real) == 0 {
		t.Fatal("found no module-internal imports; the meta-test is miswired")
	}
	for _, pkg := range slices.Sorted(maps.Keys(real)) {
		if !slices.Equal(real[pkg], drawn[pkg]) {
			t.Errorf("%s imports %v, README draws %v", pkg, real[pkg], drawn[pkg])
		}
	}
	for _, pkg := range slices.Sorted(maps.Keys(drawn)) {
		if real[pkg] == nil {
			t.Errorf("README draws %s → %v, but it imports nothing from the module (or does not exist)", pkg, drawn[pkg])
		}
	}
}
