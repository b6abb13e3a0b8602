package analysis

// This file is detlint's package loader: it parses and type-checks the
// packages of one module (this one, or an analysistest corpus under
// testdata/src, each of which is a module-shaped tree of its own) using
// only the standard library. Module-internal imports resolve through the
// loader itself; everything else falls back to the toolchain's source
// importer, which type-checks the standard library from $GOROOT/src and
// therefore works fully offline — the module keeps its zero-dependency
// go.mod.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// stdlibImporter returns the shared source importer for non-module
// imports. It is process-global so the (expensive, cached) stdlib
// type-checking is paid once per process, not once per Loader. Cgo is
// disabled so packages like net select their pure-Go fallbacks, which
// the source importer can check.
var stdlibImporter = sync.OnceValue(func() types.ImporterFrom {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
})

// A Loader parses and type-checks packages on demand, memoizing by
// import path. One Loader serves one module: import paths under
// modulePath resolve to directories under moduleRoot.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string

	pkgs    map[string]*Package
	loading map[string]bool
}

// NewModuleLoader returns a loader for the Go module rooted at root
// (the directory containing go.mod).
func NewModuleLoader(root string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return newLoader(root, modPath), nil
}

// newLoader returns a loader serving import paths under modPath from
// root.
func newLoader(root, modPath string) *Loader {
	return &Loader{
		Fset:       token.NewFileSet(),
		moduleRoot: root,
		modulePath: modPath,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`)), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// resolveDir maps an import path to a source directory served by this
// loader, or ok=false when the path belongs to the outside world (the
// standard library, in this dependency-free module).
func (l *Loader) resolveDir(path string) (string, bool) {
	if path == l.modulePath {
		return l.moduleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer for the module's own packages;
// everything else delegates to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if resolved, ok := l.resolveDir(path); ok {
		pkg, err := l.load(path, resolved)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return stdlibImporter().ImportFrom(path, dir, 0)
}

// Load returns the type-checked package at the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	dir, ok := l.resolveDir(path)
	if !ok {
		return nil, fmt.Errorf("detlint: %s is not served by this loader", path)
	}
	return l.load(path, dir)
}

// load parses and type-checks one directory, memoized by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("detlint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer func() { l.loading[path] = false }()

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("detlint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("detlint: type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of dir that match the default
// build constraints (tags: none — so e.g. race_on.go is excluded, as in
// a plain `go build`).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ExpandPatterns resolves go-tool-style package patterns ("./...",
// "./internal/...", "./cmd/detlint") against the module root into
// import paths, in sorted order. A pattern names a package of the module
// or, with a trailing "/...", that package's directory and everything
// below it.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	all, err := l.modulePackages()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pat := range patterns {
		if pat == "all" {
			pat = "./..."
		}
		rel, recursive := strings.CutSuffix(pat, "/...")
		prefix := l.modulePath
		if rel = filepath.ToSlash(filepath.Clean(rel)); rel != "." {
			prefix += "/" + rel
		}
		matched := false
		for _, p := range all {
			if p == prefix || recursive && strings.HasPrefix(p, prefix+"/") {
				out = append(out, p)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("detlint: pattern %q matched no packages", pat)
		}
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// modulePackages walks the module tree for directories containing
// buildable non-test Go files, skipping testdata, hidden, and
// underscore directories.
func (l *Loader) modulePackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.moduleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.moduleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(l.moduleRoot, p)
				if err != nil {
					return err
				}
				if rel == "." {
					out = append(out, l.modulePath)
				} else {
					out = append(out, l.modulePath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(out)
	return out, nil
}
