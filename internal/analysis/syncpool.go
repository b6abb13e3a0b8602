package analysis

// syncpool: PR 7 replaced internal/netsim's process-global packet
// sync.Pool with an arena per engine. A sweep simulates many cells at
// once, one engine per worker goroutine: a process-global pool makes them
// serialize on the pool's internals and trade packet structs between
// cores, and makes which memory a simulation reuses depend on scheduling.
// Any reappearance of sync.Pool in netsim is a regression; other packages
// are free to use it.

import (
	"go/ast"
	"go/types"
)

var SyncPoolAnalyzer = &Analyzer{
	Name: "syncpool",
	Doc:  "no sync.Pool in internal/netsim; each engine's arena owns packet recycling",
	Run:  runSyncPool,
}

func runSyncPool(pass *Pass) {
	if !inPackages(pass, "internal/netsim") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[id].(*types.TypeName)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
				pass.Reportf(id.Pos(), "sync.Pool in internal/netsim is shared by every concurrently running cell, which would serialize on it and trade packets through it; use the per-engine arena (see Engine.freePacket)")
			}
			return true
		})
	}
}
