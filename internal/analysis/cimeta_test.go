package analysis

// cimeta_test keeps the CI workflow honest about the tests it names:
// every Test/Benchmark identifier appearing in ci.yml — in step
// comments ("... (TestSharedRoutingEngineConcurrent)") or -run/-bench
// patterns — must match a function actually declared in the module, as
// an exact name or a prefix (the `go test -run` matching convention).
// Renaming a test without updating the workflow fails here, not months
// later as a silently-skipped CI step.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var ciTestIdent = regexp.MustCompile(`\b(Test|Benchmark)[A-Z][A-Za-z0-9_]*`)

// declaredTestFuncs parses every _test.go file in the module and
// returns the declared Test*/Benchmark* function names.
func declaredTestFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if name := fd.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") {
				names[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestCIReferencedTestsExist(t *testing.T) {
	root := moduleRoot(t)
	data, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("reading ci.yml: %v", err)
	}
	referenced := map[string]bool{}
	for _, m := range ciTestIdent.FindAllString(string(data), -1) {
		referenced[m] = true
	}
	if len(referenced) == 0 {
		t.Fatal("ci.yml references no Test/Benchmark identifiers; the meta-test is miswired")
	}

	declared := declaredTestFuncs(t, root)
	if len(declared) == 0 {
		t.Fatal("no test functions found in the module; the meta-test is miswired")
	}
	for name := range referenced {
		found := false
		for d := range declared {
			if strings.HasPrefix(d, name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ci.yml references %s, but no test function with that prefix is declared", name)
		}
	}
}
