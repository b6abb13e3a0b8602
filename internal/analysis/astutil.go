package analysis

// Small shared AST/type helpers for the analyzers.

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// calledFunc returns the function or method a call invokes by name,
// else nil. Works through parens and through selector or bare-ident
// call syntax, so import aliasing or a renamed receiver cannot hide a
// callee.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// pkgFunc is calledFunc restricted to package-level functions (not a
// method, not a builtin).
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calledFunc(info, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// eachUse visits every identifier used below n with the object it
// resolves to.
func eachUse(info *types.Info, n ast.Node, fn func(id *ast.Ident, obj types.Object)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				fn(id, obj)
			}
		}
		return true
	})
}

// exprString renders a (small) expression to canonical source text, for
// structural comparison of guard conditions against guarded accesses.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// terminates reports whether a block's execution cannot fall through to
// the statement after the enclosing if — the shapes a nil-guard body
// takes: return, continue, break, panic, or os.Exit / t.Fatal-style
// calls are approximated by return/continue/break/goto/panic only.
func terminates(block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// funcBodies walks every function body in the pass's files, handing the
// enclosing declaration node (FuncDecl or FuncLit) and its body to fn.
func funcBodies(files []*ast.File, fn func(decl ast.Node, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d, d.Body)
				}
			case *ast.FuncLit:
				fn(d, d.Body)
			}
			return true
		})
	}
}
