package analysis

// corpus_test implements the analysistest-style corpus runner: each
// corpus package under testdata/src declares its expected diagnostics
// in `// want "regex"` comments (double- or backtick-quoted, several
// per line allowed), and runCorpus fails the test on any mismatch in
// either direction. Each corpus is a module-shaped tree rooted at
// testdata/src/<corpus> with module path <corpus>, so its packages pose
// as the targeted real packages via import-path suffix (e.g.
// maprange/internal/routing) and import each other like real ones.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wantQuoted matches one double- or backtick-quoted regex in a want
// comment.
var wantQuoted = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// lineKey addresses one source line of the corpus.
type lineKey struct {
	file string
	line int
}

// parseWants extracts the `// want` expectations of every corpus file.
func parseWants(t *testing.T, pkg *Package) map[lineKey][]*regexp.Regexp {
	t.Helper()
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				spec := c.Text[idx+len("// want "):]
				quoted := wantQuoted.FindAllString(spec, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s: want comment with no quoted regex: %s", pos, c.Text)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regex %q: %v", pos, s, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// runCorpus loads one package of a corpus, runs the suite through
// RunPackage (so det:allow suppression and annotation validation both
// apply, exactly as in production), and reconciles the diagnostics of
// the given rules with the corpus's want comments. A corpus poses as a
// real package to exercise one rule; what the other rules make of its
// stub code is not its subject.
func runCorpus(t *testing.T, corpus, pkgPath string, rules ...string) {
	t.Helper()
	path := corpus + "/" + pkgPath
	pkg, err := newLoader(filepath.Join("testdata", "src", corpus), corpus).Load(path)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", path, err)
	}
	diags := slices.DeleteFunc(RunPackage(pkg), func(d Diagnostic) bool { return !slices.Contains(rules, d.Rule) })
	wants := parseWants(t, pkg)

	matched := map[lineKey][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		text := fmt.Sprintf("%s: %s", d.Rule, d.Message)
		found := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(text) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", pos, text)
		}
	}
	for k, res := range wants {
		for i, ok := range matched[k] {
			if !ok {
				t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, res[i].String())
			}
		}
	}
}

func TestMapRangeCorpus(t *testing.T) {
	runCorpus(t, "maprange", "internal/routing", "maprange")
}

func TestGlobalRandCorpus(t *testing.T) {
	runCorpus(t, "globalrand", "internal/netsim", "globalrand")
}

func TestSeedFoldCorpus(t *testing.T) {
	runCorpus(t, "seedfold", "internal/scenario", "seedfold")
}

func TestCacheKeyCorpus(t *testing.T) {
	runCorpus(t, "cachekey", "internal/scenario", "cachekey")
}

func TestObsGuardCorpus(t *testing.T) {
	// Producer side: the corpus obs package itself.
	runCorpus(t, "obsguard", "internal/obs", "obsguard")
	// Consumer side: a hot-path package reading obs bundles.
	runCorpus(t, "obsguard", "internal/netsim", "obsguard")
}

func TestDetAllowCorpus(t *testing.T) {
	// Malformed and idle det:allow annotations are reported by RunPackage
	// itself, under the unsuppressible pseudo-rule "detallow"; the rules
	// the corpus's annotations name are kept too, so one that failed to
	// suppress would surface.
	runCorpus(t, "detallow", "internal/routing", "detallow", "maprange", "seedfold")
}
