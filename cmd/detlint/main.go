// Command detlint is the multichecker for the repository's determinism
// contract: it compiles the internal/analysis suite (maprange,
// globalrand, seedfold, syncpool, obsguard, cachekey) into one binary
// that loads and type-checks the module from source itself — no network,
// no toolchain cache needed:
//
//	go run ./cmd/detlint ./...
//	go run ./cmd/detlint -rules maprange,seedfold ./internal/routing
//
// Exit status: 0 clean, 1 usage/load failure, 2 diagnostics reported.
// Suppressions: //det:allow <rule>[,<rule>] -- <reason> on the flagged
// line or the line above. See the README "Determinism contract"
// section for the rule catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

// selectAnalyzers filters the suite by a comma-separated -rules list.
func selectAnalyzers(rules string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if rules == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, r := range strings.Split(rules, ",") {
		r = strings.TrimSpace(r)
		a, ok := byName[r]
		if !ok {
			names := make([]string, len(all))
			for i, a := range all {
				names[i] = a.Name
			}
			return nil, fmt.Errorf("unknown rule %q (have: %s)", r, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonDiag is the -json output record.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func run() int {
	fs := flag.NewFlagSet("detlint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON lines")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	verbose := fs.Bool("v", false, "log analyzed packages to stderr")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: detlint [-rules r1,r2] [-json] [-v] <packages>\n  e.g.: detlint ./...\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 1
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
		if *verbose {
			fmt.Fprintln(os.Stderr, "detlint:", path)
		}
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			return 1
		}
		for _, d := range analysis.RunPackage(pkg, analyzers) {
			exit = 2
			if *jsonOut {
				pos := d.Position(pkg.Fset)
				rec, _ := json.Marshal(jsonDiag{pos.Filename, pos.Line, pos.Column, d.Rule, d.Message})
				fmt.Println(string(rec))
			} else {
				fmt.Println(d.Format(pkg.Fset))
			}
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
