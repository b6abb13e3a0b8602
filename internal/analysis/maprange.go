package analysis

// maprange: map iteration order is randomized by the runtime, so in the
// ordering-sensitive packages a `range` over a map — or over a
// maps.Keys / maps.Values / maps.All iterator, which yields the same
// order — is a diagnostic. There are two ways past it:
//
//   - iterate sorted keys: `for _, k := range slices.Sorted(maps.Keys(m))`
//     ranges over a slice and is not flagged;
//   - say in writing why order cannot matter (an exact integer sum, a
//     pure existence check):
//     `//det:allow maprange -- <why order cannot influence the result>`.
//
// The rule does not look into the loop body: whether a body is
// order-insensitive is a claim a reviewer checks against the written
// reason, not one a classifier proves.

import (
	"go/ast"
	"go/types"
)

// mapRangePackages are the ordering-sensitive packages whose map
// iterations feed table output, routing state, event schedules, or daemon
// answers.
var mapRangePackages = []string{
	"internal/routing",
	"internal/layers",
	"internal/netsim",
	"internal/experiments",
	"internal/scenario",
	"internal/stats",
	"internal/serve",
}

var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc:  "no range over a map or maps iterator in ordering-sensitive packages: range over slices.Sorted(maps.Keys(m)), or annotate why order cannot matter",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) {
	if !inPackages(pass, mapRangePackages...) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok && isMapRange(pass.TypesInfo, rng) {
				pass.Reportf(rng.Pos(), "range over a map visits keys in a different order every run; range over slices.Sorted(maps.Keys(m)), or annotate //det:allow maprange -- <why order cannot matter>")
			}
			return true
		})
	}
}

// isMapRange reports whether rng iterates a map or a maps.Keys /
// maps.Values / maps.All iterator.
func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	if tv, ok := info.Types[rng.X]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return true
		}
	}
	if call, ok := ast.Unparen(rng.X).(*ast.CallExpr); ok {
		if fn := pkgFunc(info, call); fn != nil && fn.Pkg().Path() == "maps" {
			switch fn.Name() {
			case "Keys", "Values", "All":
				return true
			}
		}
	}
	return false
}
