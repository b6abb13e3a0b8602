package analysis

// seedfold and cachekey are one check with two scopes: a call that
// forms a determinism-bearing key must not read the index of whatever
// loop happens to surround it.
//
// seedfold: exec.FoldSeed keys must be canonical resource keys (hashes
// of topology/routing/transport descriptors, flow identifiers, layer
// indices...). Folding on a loop index re-introduces the pre-PR4 bug
// class: two cells that share a workload-defining key get different
// seeds (or two different resources share one) as soon as the
// enumeration order or cell count changes, silently breaking
// replay-equals-rerun.
//
// cachekey: internal/scenario's cache and journal key every persisted
// result on Spec.CacheIdentity — the rendering of every result-affecting
// field plus the effective seed — precisely so that a cell addresses the
// same entry from any matrix, any enumeration order, and any day.
// Passing a loop/cell index into a key-forming call (SpecHash,
// Spec.CacheIdentity, Cache.Get/Put, Journal.Record) couples the
// cache to enumeration order (an edited matrix would hit the wrong
// entries), and passing wall-clock time makes every run a universal miss
// while looking like a working cache.
//
// An index is an enclosing for-loop induction variable or a
// slice/array/string/integer range key. Ranging over a map key is not an
// index (the key IS the resource), and range *values* are fine — `for _,
// key := range keys` yields canonical keys. The check is syntactic:
// deriving an index into a local first is not caught, and a genuinely
// index-keyed derivation (a replicate or round number that is a
// coordinate of the resource) carries a //det:allow annotation naming
// the rule.

import (
	"go/ast"
	"go/types"
	"maps"
)

// An indexRule is one scope of the check: one row, one analyzer.
type indexRule struct {
	name, doc string
	// callee reports whether call is one the rule guards, and names it
	// for the message.
	callee func(info *types.Info, call *ast.CallExpr) (string, bool)
	// uses visits the identifiers of one argument that flow into the key.
	uses func(info *types.Info, arg ast.Node, fn func(id *ast.Ident, obj types.Object))
	// indexMsg takes the callee and the index variable's name. clockMsg,
	// when non-empty, also forbids time.Now/Since/Until in an argument and
	// takes the callee and the time function's name.
	indexMsg, clockMsg string
}

var SeedFoldAnalyzer = indexRule{
	name:     "seedfold",
	doc:      "exec.FoldSeed keys must be canonical resource keys, never loop/cell indices",
	callee:   foldSeedCallee,
	uses:     eachUse, // FoldSeed takes scalar keys: any read of the index is the bug
	indexMsg: "%s folds on loop index %q; fold on a canonical resource key instead (see internal/exec)",
}.analyzer()

var CacheKeyAnalyzer = indexRule{
	name:     "cachekey",
	doc:      "scenario cache/journal keys derive from canonical cell identity, never loop indices or wall-clock time",
	callee:   cacheKeyCallee,
	uses:     eachKeyUse,
	indexMsg: "%s keys on loop index %q; cache keys derive from canonical resource coordinates, never enumeration order (see internal/scenario/cache.go)",
	clockMsg: "%s keys on wall-clock time (time.%s); cache keys must address the same entry from any run",
}.analyzer()

func (r indexRule) analyzer() *Analyzer {
	return &Analyzer{Name: r.name, Doc: r.doc, Run: r.run}
}

func (r indexRule) run(pass *Pass) {
	info := pass.TypesInfo
	onCall := func(call *ast.CallExpr, indexVars map[types.Object]bool) {
		callee, ok := r.callee(info, call)
		if !ok {
			return
		}
		reported := map[types.Object]bool{}
		for _, arg := range call.Args {
			r.uses(info, arg, func(id *ast.Ident, obj types.Object) {
				var msg, what string
				switch {
				case indexVars[obj]:
					msg, what = r.indexMsg, id.Name
				case r.clockMsg != "" && isWallClockFunc(obj):
					msg, what = r.clockMsg, obj.Name()
				}
				if msg != "" && !reported[obj] {
					reported[obj] = true
					pass.Reportf(id.Pos(), msg, callee, what)
				}
			})
		}
	}
	for _, f := range pass.Files {
		walkIndexVars(info, f, map[types.Object]bool{}, onCall)
	}
}

// walkIndexVars walks n keeping the set of live induction-variable
// objects (for-loop init variables and positional range keys), and hands
// every call expression to onCall with the set in scope at that point. A
// closure sees the loops that enclose it: it captures their variables.
func walkIndexVars(info *types.Info, n ast.Node, indexVars map[types.Object]bool, onCall func(call *ast.CallExpr, indexVars map[types.Object]bool)) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch st := c.(type) {
		case *ast.ForStmt:
			inner := maps.Clone(indexVars)
			// Variables declared in the init clause and mutated by the post
			// clause are induction variables.
			if init, ok := st.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							inner[obj] = true
						}
					}
				}
			}
			if st.Init != nil {
				walkIndexVars(info, st.Init, indexVars, onCall)
			}
			if st.Cond != nil {
				walkIndexVars(info, st.Cond, inner, onCall)
			}
			if st.Post != nil {
				walkIndexVars(info, st.Post, inner, onCall)
			}
			walkIndexVars(info, st.Body, inner, onCall)
			return false
		case *ast.RangeStmt:
			inner := maps.Clone(indexVars)
			// The key var is a positional index when ranging over a
			// slice/array/string or an integer; over a map or channel the key
			// is the element itself, and over an iterator function we cannot
			// tell, so we stay quiet.
			if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" && rangeKeyIsIndex(info, st) {
				if obj := info.ObjectOf(id); obj != nil {
					inner[obj] = true
				}
			}
			walkIndexVars(info, st.X, indexVars, onCall)
			walkIndexVars(info, st.Body, inner, onCall)
			return false
		case *ast.CallExpr:
			onCall(st, indexVars)
		}
		return true
	})
}

// rangeKeyIsIndex reports whether the range key variable is a
// positional index for the ranged operand.
func rangeKeyIsIndex(info *types.Info, st *ast.RangeStmt) bool {
	tv, ok := info.Types[st.X]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Pointer:
		return true
	case *types.Basic:
		// range over string (byte offsets) or integer (range-over-int).
		return t.Info()&(types.IsString|types.IsInteger) != 0
	}
	return false
}

// foldSeedCallee matches FoldSeed from the module's exec package.
func foldSeedCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := pkgFunc(info, call)
	return "exec.FoldSeed", fn != nil && fn.Name() == "FoldSeed" && pathMatches(fn.Pkg().Path(), "internal/exec")
}

// cacheKeyFuncs are internal/scenario's package-level key-forming
// functions; cacheKeyMethods the key-forming methods by (receiver type,
// method name). Every argument of these calls feeds a content address.
var (
	cacheKeyFuncs   = map[string]bool{"SpecHash": true}
	cacheKeyMethods = map[[2]string]bool{
		{"Spec", "CacheIdentity"}: true,
		{"Cache", "Get"}:          true,
		{"Cache", "Put"}:          true,
		{"Journal", "Record"}:     true,
	}
)

// cacheKeyCallee matches the scenario package's key-forming entry
// points by type information; the import-path suffix match lets the
// corpus pose as internal/scenario.
func cacheKeyCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calledFunc(info, call)
	if fn == nil || !pathMatches(fn.Pkg().Path(), "internal/scenario") {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "scenario." + fn.Name(), cacheKeyFuncs[fn.Name()]
	}
	name := recvTypeName(recv.Type())
	return "scenario." + name + "." + fn.Name(), cacheKeyMethods[[2]string{name, fn.Name()}]
}

// eachKeyUse visits identifier uses below n, skipping index positions:
// cells[i] passes the element — a canonical cell — into the key, so only
// the index itself flowing into the key material is the bug.
func eachKeyUse(info *types.Info, n ast.Node, fn func(id *ast.Ident, obj types.Object)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if ix, ok := c.(*ast.IndexExpr); ok {
			eachKeyUse(info, ix.X, fn)
			return false
		}
		if id, ok := c.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				fn(id, obj)
			}
		}
		return true
	})
}

// recvTypeName names a method receiver's base type ("" for non-named
// receivers).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isWallClockFunc reports whether obj is time.Now, time.Since, or
// time.Until — the wall-clock sources a reproducible key can never read.
func isWallClockFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}
