// Command detlint is the front end of the repository's determinism
// contract: it runs the whole internal/analysis suite (maprange,
// globalrand, seedfold, cachekey, obsguard) over the named packages,
// loading and type-checking the module from source itself — no network,
// no toolchain cache needed:
//
//	go run ./cmd/detlint ./...
//	go run ./cmd/detlint ./internal/routing ./internal/scenario/...
//
// Exit status: 0 clean, 1 usage/load failure, 2 diagnostics reported.
// Suppressions: //det:allow <rule>[,<rule>] -- <reason> on the flagged
// line or the line above. See the README "Determinism contract"
// section for the rule catalog.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(patterns []string) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintln(os.Stderr, "usage: detlint [packages]   (no flags; default ./...)")
			return 1
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 1
	}
	loader, err := analysis.NewModuleLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 1
	}
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 1
	}

	exit := 0
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			return 1
		}
		for _, d := range analysis.RunPackage(pkg) {
			exit = 2
			fmt.Println(d.Format(pkg.Fset))
		}
	}
	return exit
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
