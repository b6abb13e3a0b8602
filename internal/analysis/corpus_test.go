package analysis

// corpus_test implements the analysistest-style corpus runner: each
// corpus package under testdata/src declares its expected diagnostics
// in `// want "regex"` comments (double- or backtick-quoted, several
// per line allowed), and runCorpus fails the test on any mismatch in
// either direction. Corpus packages pose as the targeted real packages
// via import-path suffix (e.g. maprange/internal/routing).

import (
	"fmt"
	"go/token"
	"regexp"
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

// newCorpusLoader returns a loader for the analysistest corpus rooted at
// srcRoot, where package path P lives in srcRoot/P.
func newCorpusLoader(srcRoot string) *Loader {
	return &Loader{
		Fset:       token.NewFileSet(),
		corpusRoot: srcRoot,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// runCorpus loads one corpus package, runs the given analyzers through
// RunPackage (so det:allow suppression and malformed-annotation
// reporting both apply, exactly as in production), and reconciles the
// diagnostics with the corpus's want comments.
func runCorpus(t *testing.T, path string, analyzers ...*Analyzer) {
	t.Helper()
	loader := newCorpusLoader("testdata/src")
	pkg, err := loader.Load(path)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", path, err)
	}
	diags := RunPackage(pkg, analyzers)
	wants := parseWants(t, pkg)

	matched := map[lineKey][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		pos := d.Position(pkg.Fset)
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
	runCorpus(t, "maprange/internal/routing", MapRangeAnalyzer)
}

func TestGlobalRandCorpus(t *testing.T) {
	runCorpus(t, "globalrand/internal/netsim", GlobalRandAnalyzer)
}

func TestSeedFoldCorpus(t *testing.T) {
	runCorpus(t, "seedfold/internal/scenario", SeedFoldAnalyzer)
}

func TestCacheKeyCorpus(t *testing.T) {
	runCorpus(t, "cachekey/internal/scenario", CacheKeyAnalyzer)
}

func TestSyncPoolCorpus(t *testing.T) {
	runCorpus(t, "syncpool/internal/netsim", SyncPoolAnalyzer)
	// Outside internal/netsim the same code is unrestricted.
	runCorpus(t, "syncpool/internal/arena", SyncPoolAnalyzer)
}

func TestObsGuardCorpus(t *testing.T) {
	// Producer side: the corpus obs package itself.
	runCorpus(t, "obsguard/internal/obs", ObsGuardAnalyzer)
	// Consumer side: a hot-path package reading obs bundles.
	runCorpus(t, "obsguard/internal/netsim", ObsGuardAnalyzer)
}

func TestDetAllowCorpus(t *testing.T) {
	// Malformed det:allow annotations are reported by RunPackage itself,
	// under the unsuppressible pseudo-rule "detallow".
	runCorpus(t, "detallow/internal/routing", Analyzers()...)
}
