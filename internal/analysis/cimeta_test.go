package analysis

// cimeta_test keeps the CI workflow and README.md honest about the tests
// they name: every Test/Benchmark/Example/Fuzz identifier appearing in
// ci.yml — in step comments ("... (TestSharedRoutingEngineConcurrent)") or
// -run/-bench/-fuzz patterns — or in README.md must match a function
// actually declared in the module, as an exact name or a prefix (the
// `go test -run` matching convention). Renaming a test without updating
// the workflow or the docs fails here, not months later as a
// silently-skipped CI step or a README pointing at nothing.

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

var ciTestIdent = regexp.MustCompile(`\b(Test|Benchmark|Example|Fuzz)[A-Z_][A-Za-z0-9_]*`)

// declaredTestFuncs parses every _test.go file in the module and
// returns the declared Test/Benchmark/Example/Fuzz function names.
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
			if name := fd.Name.Name; ciTestIdent.MatchString(name) {
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
	declared := declaredTestFuncs(t, root)
	if len(declared) == 0 {
		t.Fatal("no test functions found in the module; the meta-test is miswired")
	}
	for _, doc := range []string{filepath.Join(".github", "workflows", "ci.yml"), "README.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		referenced := map[string]bool{}
		for _, m := range ciTestIdent.FindAllString(string(data), -1) {
			referenced[m] = true
		}
		if len(referenced) == 0 {
			t.Fatalf("%s references no test identifiers; the meta-test is miswired", doc)
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
				t.Errorf("%s references %s, but no test function with that prefix is declared", doc, name)
			}
		}
	}
}
