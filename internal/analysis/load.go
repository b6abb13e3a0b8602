package analysis

// This file is detlint's package loader: it parses and type-checks the
// packages of this module (or of a GOPATH-style analysistest corpus)
// using only the standard library. Module-internal imports resolve
// through the loader itself; everything else falls back to the
// toolchain's source importer, which type-checks the standard library
// from $GOROOT/src and therefore works fully offline — the module keeps
// its zero-dependency go.mod.

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
	"sort"
	"strings"
	"sync"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Dir   string
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

var (
	stdOnce     sync.Once
	stdImporter types.ImporterFrom
)

// stdlibImporter returns the shared source importer for non-module
// imports. It is process-global so the (expensive, cached) stdlib
// type-checking is paid once per process, not once per Loader. Cgo is
// disabled so packages like net select their pure-Go fallbacks, which
// the source importer can check.
func stdlibImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		build.Default.CgoEnabled = false
		stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	})
	return stdImporter
}

// A Loader parses and type-checks packages on demand, memoizing by
// import path. One Loader serves one module root or one corpus root.
type Loader struct {
	Fset *token.FileSet

	// moduleRoot/modulePath describe module mode: import paths under
	// modulePath resolve to directories under moduleRoot.
	moduleRoot string
	modulePath string

	// corpusRoot describes GOPATH-style corpus mode: import path P
	// resolves to corpusRoot/P when that directory exists. Corpus
	// packages can thereby pose as e.g. repro/internal/netsim.
	corpusRoot string

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
	return &Loader{
		Fset:       token.NewFileSet(),
		moduleRoot: root,
		modulePath: modPath,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
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
	if l.modulePath != "" {
		if path == l.modulePath {
			return l.moduleRoot, true
		}
		if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
			return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), true
		}
	}
	if l.corpusRoot != "" {
		dir := filepath.Join(l.corpusRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// Import implements types.Importer for the module/corpus packages;
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
	pkg := &Package{Dir: dir, Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
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
// import paths, in sorted order. Only module mode supports patterns.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	if l.modulePath == "" {
		return nil, fmt.Errorf("detlint: patterns need a module loader")
	}
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	all, err := l.modulePackages()
	if err != nil {
		return nil, err
	}
	for _, pat := range patterns {
		switch {
		case pat == "all" || pat == "./...":
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := l.modulePath
			if rel := strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/..."); rel != "" && rel != "." {
				prefix = l.modulePath + "/" + path_Clean(rel)
			}
			matched := false
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("detlint: pattern %q matched no packages", pat)
			}
		default:
			rel := strings.TrimPrefix(pat, "./")
			p := l.modulePath
			if rel != "" && rel != "." {
				p = l.modulePath + "/" + path_Clean(rel)
			}
			dir, ok := l.resolveDir(p)
			if !ok {
				return nil, fmt.Errorf("detlint: package %q outside module", pat)
			}
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				return nil, fmt.Errorf("detlint: no such package %q", pat)
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// path_Clean normalizes a slash-separated relative pattern.
func path_Clean(p string) string {
	return strings.Trim(filepath.ToSlash(filepath.Clean(filepath.FromSlash(p))), "/")
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
	sort.Strings(out)
	return out, nil
}
