package analysis

// reach_test holds the tree to one rule: a package-level function or
// method in a non-test internal/ file stays only if a command reaches it,
// or a test of a reachable function uses it as its reference.
//
// "Reaches" is a use-graph walk over the type-checked module: the roots
// are every function and package-level initializer of the cmd/* main
// packages, and the init functions and package-level initializers of
// every non-main package; an edge is any identifier in a reached body
// that resolves to a function or method — a call, a method value, a
// function passed as an argument. A method also counts as reached when it
// is how its receiver satisfies an interface (Stringer, sort.Interface,
// http.Handler, flag.Value, the module's own interfaces), because those
// calls are dispatched where no identifier names the method. The walk is
// conservative: it may keep a function nothing runs, it never condemns
// one a command can call.
//
// Tests, examples and the benchmark module (bench/, which the module
// loader type-checks as repro/bench) are not roots. References that only
// tests call are listed in referenceKeepList, each with the test that
// compares a reachable function against it; names that only bench/ calls
// are listed in benchOnlyList, each with the ROADMAP item that retires it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// A keptReference is an unreached function that stays because Test (in
// File, relative to the module root) checks reachable code against it.
type keptReference struct {
	Func string // as unreachedFunctions names it
	File string
	Test string
}

var referenceKeepList = []keptReference{
	// Exact max-flow: oracle of the rank-based diversity.EdgeConnectivityBounded
	// (and of the greedy graph.DisjointPathsBounded in graph_test.go).
	{"graph.Graph.EdgeConnectivityPair", "internal/diversity/diversity_test.go", "TestEdgeConnectivityBoundedMatchesExact"},
	// BFS shortest-path counting: oracle of routing.Engine.RouteCounts.
	{"graph.Graph.ShortestPathDAGCounts", "internal/routing/routing_test.go", "TestRouteCountsMatchShortestPathDAG"},
	// Materialized layer subgraph: BFS on it is the oracle of the masked
	// per-layer tables behind routing.Engine.PathLen.
	{"graph.Graph.Subgraph", "internal/layers/layers_test.go", "TestForwardingMinimalWithinLayer"},
	// Full rebuild on the surviving links: oracle of the incremental
	// routing.Engine.WithoutEdges repair.
	{"layers.LayerSet.WithoutEdges", "internal/netsim/failures_test.go", "TestLayerRecomputationAfterFailure"},
	// Unrestricted multicommodity-flow optimum: upper bracket of mcf.PathMAT.
	{"mcf.GeneralMAT", "internal/mcf/mcf_test.go", "TestPathMATBoundedByGeneralProperty"},
	// Structural invariants every topology builder's output is held to.
	{"topo.Topology.Validate", "internal/topo/fuzz_test.go", "FuzzBuilders"},
	// Exact mean of the discretized pFabric distribution: what the
	// PFabricFlowSize sampler's mean must converge to.
	{"traffic.PFabricMean", "internal/traffic/traffic_test.go", "TestPFabricSamplerMatchesCDF"},
}

// A benchOnly function is reached by no command, only by the frozen
// benchmark module, whose files no code change may edit. Why names what
// bench/ uses it for and the ROADMAP item that retires it. Functions the
// entry reaches need no entry of their own.
type benchOnly struct {
	Func string // as unreachedFunctions names it
	Why  string
}

var benchOnlyList = []benchOnly{
	{"routing.Engine.Candidates", "bench/e2e.go and bench/layers.go decode candidates with it; ROADMAP 1(b) moves them to AppendCandidates"},
	{"routing.Engine.Engine", "bench/layers.go spells the engine Fwd.Engine(); ROADMAP 1(b) spells it Fwd"},
	{"serve.Server.Fabrics", "bench/layers.go times the resident-fabric lookup through it; ROADMAP 1(b) replaces that call"},
	{"obs.Registry.Snapshot", "bench/ reads its counters through it"},
	{"diversity.EdgeConnectivityBounded", "bench/layers.go times it for diversity.edge_connectivity_us; ROADMAP 1(a) and 15(b) delete both"},
}

// funcName renders fn as "pkg.Func" or "pkg.Type.Method".
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// dispatchInterfaces collects every method-bearing, non-generic
// interface type declared in pkgs or in anything they import, plus the
// universe's error.
func dispatchInterfaces(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && iface.IsMethodSet() {
				out = append(out, iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return out
}

// A useGraph is the module's function bodies, ready to walk from any set
// of roots.
type useGraph struct {
	decls    map[*types.Func]body
	internal map[string]*types.Func // the non-init functions of non-test internal/ files, by funcName
	// dispatched are the methods that satisfy some interface; shared are
	// the init functions and package-level initializers of non-main
	// packages; cmd and bench are every function and package-level
	// initializer of the cmd/* main packages and of bench/.
	dispatched         []*types.Func
	shared, cmd, bench []body
}

// A body is a syntax tree to scan for uses, with the type information of
// the package it came from.
type body struct {
	node ast.Node
	info *types.Info
}

func newUseGraph(pkgs []*Package) *useGraph {
	g := &useGraph{decls: map[*types.Func]body{}, internal: map[string]*types.Func{}}
	for _, pkg := range pkgs {
		isMain := pkg.Types.Name() == "main"
		var roots *[]body // nil: a main package that is neither a command nor bench/
		switch {
		case !isMain:
			roots = &g.shared
		case strings.Contains(pkg.Path, "/cmd/"):
			roots = &g.cmd
		case strings.HasSuffix(pkg.Path, "/bench"):
			roots = &g.bench
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue // implemented outside Go: nothing to scan
					}
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					b := body{d.Body, pkg.Info}
					g.decls[fn] = b
					isInit := d.Recv == nil && d.Name.Name == "init"
					if roots != nil && (isMain || isInit) {
						*roots = append(*roots, b)
					} else if strings.Contains(pkg.Path, "/internal/") {
						g.internal[funcName(fn)] = fn
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR && roots != nil {
						*roots = append(*roots, body{d, pkg.Info})
					}
				}
			}
		}
	}

	// Methods that satisfy an interface are dispatched dynamically.
	ifaces := dispatchInterfaces(pkgs)
	for fn := range g.decls {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		ptr := recv.Type()
		if _, ok := ptr.(*types.Pointer); !ok {
			ptr = types.NewPointer(ptr)
		}
		for _, iface := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name()); m != nil && types.Implements(ptr, iface) {
				g.dispatched = append(g.dispatched, fn)
				break
			}
		}
	}
	return g
}

// walk returns every function reached from the roots, the functions in
// from, the shared roots and the dispatched methods.
func (g *useGraph) walk(roots []body, from ...*types.Func) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	work := append(append([]body(nil), roots...), g.shared...)
	reach := func(fn *types.Func) {
		if d, ok := g.decls[fn]; ok && !reached[fn] {
			reached[fn] = true
			work = append(work, d)
		}
	}
	for _, fn := range append(from, g.dispatched...) {
		reach(fn)
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(b.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := b.info.Uses[id].(*types.Func); ok {
					reach(fn.Origin())
				}
			}
			return true
		})
	}
	return reached
}

// unreachedFunctions returns, sorted, the name of every function and
// method declared in a non-test internal/ file that neither a command nor
// a benchOnlyList entry reaches.
func (g *useGraph) unreachedFunctions() []string {
	var listed []*types.Func
	for _, b := range benchOnlyList {
		if fn := g.internal[b.Func]; fn != nil {
			listed = append(listed, fn)
		}
	}
	reached := g.walk(g.cmd, listed...)
	var out []string
	for name, fn := range g.internal {
		if !reached[fn] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// outsideKeepList returns the names in unreached that referenceKeepList
// does not excuse.
func outsideKeepList(unreached []string) []string {
	kept := map[string]bool{}
	for _, k := range referenceKeepList {
		kept[k.Func] = true
	}
	var out []string
	for _, name := range unreached {
		if !kept[name] {
			out = append(out, name)
		}
	}
	return out
}

// testMentions reports whether file declares the test function named test
// and whether that function's body mentions the identifier ident.
func testMentions(t *testing.T, file, test, ident string) (exists, mentions bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || fd.Name.Name != test {
			continue
		}
		exists = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == ident {
				mentions = true
			}
			return true
		})
	}
	return exists, mentions
}

func TestEveryFunctionReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root := moduleRoot(t)
	g := newUseGraph(loadModule(t, root))
	byCmd, byBench := g.walk(g.cmd), g.walk(g.bench)
	for _, b := range benchOnlyList {
		fn := g.internal[b.Func]
		switch {
		case fn == nil:
			t.Errorf("bench-only entry %s: no internal/ function by that name; drop the entry", b.Func)
		case byCmd[fn]:
			t.Errorf("bench-only entry %s is reached by a command; drop the entry", b.Func)
		case !byBench[fn]:
			t.Errorf("bench-only entry %s: bench/ does not reach it; drop the entry", b.Func)
		}
	}
	all := g.unreachedFunctions()
	unreached := map[string]bool{}
	for _, name := range all {
		unreached[name] = true
	}
	for _, k := range referenceKeepList {
		if !unreached[k.Func] {
			t.Errorf("keep-list entry %s is reached by a command or a bench-only entry (or gone); drop the entry", k.Func)
		}
		if !strings.HasSuffix(k.File, "_test.go") {
			t.Errorf("keep-list entry %s: %s is not a test file", k.Func, k.File)
			continue
		}
		ident := k.Func[strings.LastIndex(k.Func, ".")+1:]
		exists, mentions := testMentions(t, filepath.Join(root, filepath.FromSlash(k.File)), k.Test, ident)
		if !exists {
			t.Errorf("keep-list entry %s: no %s in %s", k.Func, k.Test, k.File)
		} else if !mentions {
			t.Errorf("keep-list entry %s: %s never mentions %s", k.Func, k.Test, ident)
		}
	}
	for _, name := range outsideKeepList(all) {
		t.Errorf("%s: no cmd/ command reaches it, benchOnlyList does not name it, and referenceKeepList names no test that needs it as its reference", name)
	}
}
