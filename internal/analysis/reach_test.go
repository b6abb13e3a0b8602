package analysis

// reach_test holds the tree to one rule: a package-level function or
// method in a non-test internal/ file stays only if some binary reaches
// it, or a test of a reachable function uses it as its reference.
//
// "Reaches" is a use-graph walk over the type-checked module: the roots
// are every function of every main package (cmd/*, examples/*, and
// bench/, which the module loader type-checks as repro/bench), every
// init function and every package-level initializer; an edge is any
// identifier in a reached body that resolves to a function or method —
// a call, a method value, a function passed as an argument. A method
// also counts as reached when it is how its receiver satisfies an
// interface (Stringer, sort.Interface, http.Handler, flag.Value, the
// module's own interfaces), because those calls are dispatched where no
// identifier names the method. The walk is conservative: it may keep a
// function nothing runs, it never condemns one a binary can call.
//
// References that only tests call are listed in referenceKeepList, each
// with the test that compares a reachable function against it.

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
	// The only reader of the format LayerSet.Save (cmd/fatpaths -save) writes.
	{"layers.ReadLayerSet", "internal/layers/layers_test.go", "TestLayerSetSerializationRoundTrip"},
	// Unrestricted multicommodity-flow optimum: upper bracket of mcf.PathMAT.
	{"mcf.GeneralMAT", "internal/mcf/mcf_test.go", "TestPathMATBoundedByGeneralProperty"},
	// Structural invariants every topology builder's output is held to.
	{"topo.Topology.Validate", "internal/topo/fuzz_test.go", "FuzzBuilders"},
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

// unreachedFunctions returns, sorted, the name of every function and
// method declared in a non-test internal/ file of pkgs that the walk
// described at the top of this file does not reach.
func unreachedFunctions(pkgs []*Package) []string {
	// A body is a syntax tree to scan for uses, with the type information
	// of the package it came from.
	type body struct {
		node ast.Node
		info *types.Info
	}
	decls := map[*types.Func]body{}
	inInternal := map[*types.Func]bool{}
	reached := map[*types.Func]bool{}
	var work []body
	reach := func(fn *types.Func) {
		if d, ok := decls[fn]; ok && !reached[fn] {
			reached[fn] = true
			work = append(work, d)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue // implemented outside Go: nothing to scan
					}
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					decls[fn] = body{d.Body, pkg.Info}
					inInternal[fn] = strings.Contains(pkg.Path, "/internal/")
					if pkg.Types.Name() == "main" || (d.Recv == nil && d.Name.Name == "init") {
						reach(fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						work = append(work, body{d, pkg.Info})
					}
				}
			}
		}
	}

	// Methods that satisfy an interface are dispatched dynamically.
	ifaces := dispatchInterfaces(pkgs)
	for fn := range decls {
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
				reach(fn)
				break
			}
		}
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

	var out []string
	for fn := range decls {
		if !reached[fn] && inInternal[fn] {
			out = append(out, funcName(fn))
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
	all := unreachedFunctions(loadModule(t, root))
	unreached := map[string]bool{}
	for _, name := range all {
		unreached[name] = true
	}
	for _, k := range referenceKeepList {
		if !unreached[k.Func] {
			t.Errorf("keep-list entry %s is reached by a binary (or gone); drop the entry", k.Func)
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
		t.Errorf("%s: no cmd/, examples/ or bench/ binary reaches it and referenceKeepList names no test that needs it as its reference", name)
	}
}
