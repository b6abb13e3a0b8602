// Package analysis is detlint: a suite of static analyzers that enforce
// the repository's determinism contract — the invariant, inherited from
// the FatPaths reproduction's golden harness, that every table is
// byte-identical at any worker count and build order.
//
// The analyzers encode the rules the tree already follows dynamically:
//
//   - maprange: no range over a map (or a maps.Keys/Values/All iterator)
//     in the ordering-sensitive packages; range over
//     slices.Sorted(maps.Keys(m)) or write down why order cannot matter.
//   - globalrand: no math/rand global state, time.Now, or os.Getpid in
//     sim/output paths; randomness derives from exec.FoldSeed streams.
//   - seedfold: exec.FoldSeed keys come from canonical resource keys,
//     never from loop/cell indices.
//   - cachekey: the durable sweep runtime's cache/journal keys derive
//     from canonical cell identity, never loop indices or wall-clock
//     time.
//   - obsguard: obs hooks on simulator/routing hot paths stay nil-safe
//     per internal/obs's zero-cost-when-disabled contract.
//
// (That internal/netsim holds no sync.Pool — nor any other sync
// primitive — is not an analyzer: the module self-check in
// selfcheck_test.go asserts the package's import set.)
//
// The suite is intentionally self-contained: it reimplements the small
// slice of golang.org/x/tools/go/analysis it needs (Analyzer, Pass,
// diagnostics, an analysistest-style corpus runner) on top of the
// standard library's go/ast and go/types, so the module keeps its
// zero-dependency build. cmd/detlint is its one front end
// (`go run ./cmd/detlint ./...`); every rule always runs.
//
// # Suppressions
//
// A diagnostic is suppressed by an explicit annotation on the flagged
// line or the line directly above it:
//
//	//det:allow <rule>[,<rule>...] -- <reason>
//
// The reason is mandatory; a det:allow without one, naming an unknown
// rule, or naming a rule that has nothing to suppress there (so a stale
// annotation cannot pre-approve whatever lands on its line next) is
// itself a diagnostic. Suppressions are deliberate, documented
// exceptions — the golden harness still re-proves the contract
// dynamically behind every one of them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// An Analyzer is one named determinism rule.
type Analyzer struct {
	// Name is the rule name used in diagnostics and det:allow comments.
	Name string
	// Doc is a one-paragraph description of the rule.
	Doc string
	// Run reports the rule's diagnostics for one package via pass.Report.
	Run func(*Pass)
}

// A Pass holds one type-checked package being analyzed by one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos; RunPackage drops it if a det:allow
// annotation for this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one rule violation.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
}

// Format renders "file:line:col: rule: message" against fset.
func (d Diagnostic) Format(fset *token.FileSet) string {
	return fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), d.Rule, d.Message)
}

// analyzers is the full detlint suite in canonical order. RunPackage
// always runs all of it.
var analyzers = []*Analyzer{
	MapRangeAnalyzer,
	GlobalRandAnalyzer,
	SeedFoldAnalyzer,
	CacheKeyAnalyzer,
	ObsGuardAnalyzer,
}

// ruleNames is the set of valid rule names for det:allow validation.
var ruleNames = func() map[string]bool {
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}()

// allowRe matches the head of a det:allow annotation; the rest of the
// comment is validated by parseAllow.
var allowRe = regexp.MustCompile(`^//det:allow\b`)

// allowKey identifies one (file, line, rule) suppression.
type allowKey struct {
	file string
	line int
	rule string
}

// An annotation is one well-formed det:allow comment and the rules it
// names that have not suppressed a diagnostic yet.
type annotation struct {
	pos  token.Pos
	idle []string
}

// suppressions is the per-package det:allow index plus any diagnostics
// about malformed annotations (reported under the pseudo-rule
// "detallow", which cannot itself be suppressed).
type suppressions struct {
	allow       map[allowKey]*annotation
	annotations []*annotation
	malformed   []Diagnostic
}

// parseAllow validates one det:allow comment and returns the rules it
// names. Valid form: //det:allow rule[,rule...] -- reason
func parseAllow(text string) (rules []string, err error) {
	body := strings.TrimPrefix(text, "//det:allow")
	ruleSpec, reason, found := strings.Cut(body, "--")
	if !found || strings.TrimSpace(reason) == "" {
		return nil, fmt.Errorf("det:allow needs a reason: //det:allow <rule> -- <reason>")
	}
	for _, r := range strings.Split(ruleSpec, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if !ruleNames[r] {
			return nil, fmt.Errorf("det:allow names unknown rule %q", r)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("det:allow names no rule: //det:allow <rule> -- <reason>")
	}
	return rules, nil
}

// indexSuppressions scans a package's comments for det:allow
// annotations. An annotation suppresses matching diagnostics on its own
// line and on the line below it (comment-above style).
func indexSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{allow: map[allowKey]*annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !allowRe.MatchString(c.Text) {
					continue
				}
				pos := fset.Position(c.Pos())
				rules, err := parseAllow(c.Text)
				if err != nil {
					s.malformed = append(s.malformed, Diagnostic{
						Pos: c.Pos(), Rule: "detallow", Message: err.Error(),
					})
					continue
				}
				ann := &annotation{pos: c.Pos(), idle: rules}
				s.annotations = append(s.annotations, ann)
				for _, r := range rules {
					s.allow[allowKey{pos.Filename, pos.Line, r}] = ann
					s.allow[allowKey{pos.Filename, pos.Line + 1, r}] = ann
				}
			}
		}
	}
	return s
}

// covers reports whether an annotation suppresses d, and records that
// the annotation earned its place.
func (s *suppressions) covers(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	ann := s.allow[allowKey{pos.Filename, pos.Line, d.Rule}]
	if ann == nil {
		return false
	}
	ann.idle = slices.DeleteFunc(ann.idle, func(r string) bool { return r == d.Rule })
	return true
}

// idle returns one detallow diagnostic per annotation naming a rule that
// suppressed nothing. Meaningful only after every raw diagnostic has
// been through covers — which is why every rule always runs.
func (s *suppressions) idle() []Diagnostic {
	var out []Diagnostic
	for _, ann := range s.annotations {
		if len(ann.idle) > 0 {
			out = append(out, Diagnostic{Pos: ann.pos, Rule: "detallow", Message: fmt.Sprintf(
				"det:allow %s suppresses nothing: the rule reports no diagnostic on this line or the next; delete it",
				strings.Join(ann.idle, ","))})
		}
	}
	return out
}

// RunPackage applies the suite to one loaded package and returns the
// surviving diagnostics (suppressed ones dropped, malformed and idle
// det:allow annotations added) sorted by position.
func RunPackage(pkg *Package) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &raw,
		}
		a.Run(pass)
	}
	sup := indexSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, d := range raw {
		if !sup.covers(pkg.Fset, d) {
			out = append(out, d)
		}
	}
	out = append(out, sup.malformed...)
	out = append(out, sup.idle()...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// pathMatches reports whether a package import path ends with the given
// slash-separated suffix on a segment boundary — the rule-targeting
// predicate. Matching by suffix (not exact path) lets the analysistest
// corpora pose as ordering-sensitive packages.
func pathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// inPackages reports whether the pass's package matches any of the
// given path suffixes.
func inPackages(pass *Pass, suffixes ...string) bool {
	for _, s := range suffixes {
		if pathMatches(pass.Pkg.Path(), s) {
			return true
		}
	}
	return false
}
