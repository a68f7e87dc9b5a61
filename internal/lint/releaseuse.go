package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReleaseUse enforces the release lifecycle documented in
// docs/performance.md: Release() extracts a resource's final statistics
// snapshot and frees (or pools) its bulk storage, so nothing may read
// the resource afterwards — the released cache's tag and data arrays and
// base-table directory are nil, and a released store's pages may already
// belong to a different store.
// The analyzer flags, within one function body, any use of a variable
// after a non-deferred <var>.Release() call on it. A reassignment of the
// variable starts a fresh lifecycle, and deferred releases run at
// function exit (after every use), so both stay quiet. Only plain
// identifier receivers are tracked: a field release like c.table.Release()
// inside an owner's own Release method is the sanctioned teardown path.
var ReleaseUse = &Analyzer{
	Name: "releaseuse",
	Doc:  "flag uses of a resource after its Release() call; only the returned snapshot survives a release",
	Run:  runReleaseUse,
}

func runReleaseUse(pass *Pass) {
	if !pass.SimPackage {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkReleaseUse(pass, fd.Body)
			}
		}
	}
}

// checkReleaseUse analyzes one function body. Positions are compared in
// source order, which matches execution order for the straight-line
// snapshot-then-release sequences the lifecycle prescribes; closures are
// skipped entirely (their execution time is unknowable statically).
func checkReleaseUse(pass *Pass, body *ast.BlockStmt) {
	type release struct {
		end  token.Pos // end of the Release call
		name string
	}
	released := map[types.Object]release{}
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Release" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := objectOf(pass.Info, id).(*types.Var)
		if !ok {
			return true
		}
		// A deferred release runs at function exit, after every use.
		for _, a := range stack {
			if _, ok := a.(*ast.DeferStmt); ok {
				return true
			}
		}
		if prev, dup := released[obj]; !dup || call.End() < prev.end {
			released[obj] = release{end: call.End(), name: id.Name}
		}
		return true
	})
	if len(released) == 0 {
		return
	}

	// Reassignments (plain = on the whole variable) end the released
	// state: the variable now names a live resource again.
	reassigned := map[types.Object][]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := objectOf(pass.Info, id); obj != nil {
					reassigned[obj] = append(reassigned[obj], id.Pos())
				}
			}
		}
		return true
	})

	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objectOf(pass.Info, id)
		r, ok := released[obj]
		if !ok || id.Pos() <= r.end {
			return true
		}
		for _, p := range reassigned[obj] {
			// A reassignment at the use position is the reassignment
			// itself, which is allowed.
			if p > r.end && p <= id.Pos() {
				return true
			}
		}
		pass.Reportf(id.Pos(),
			"%s used after %s.Release(): a released resource's storage is freed or pooled, so only the "+
				"snapshot Release returned survives; move this use before the release or keep what it needs "+
				"in the snapshot", id.Name, r.name)
		return true
	})
}
