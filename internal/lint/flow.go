package lint

import (
	"go/ast"
	"go/types"
)

// The statement walker the locks and lockorder analyzers share.
// It follows a function body's control flow and leaves what flows to
// the analyzer: a per-path state S and the hooks below.
//
//   - Each branch of an if, switch or select starts from a copy of the
//     state before it. A branch that ends in return, panic, break,
//     continue or goto does not flow into the code after the statement;
//     the others are joined there, together with the entry state for
//     an if without else and for a switch (no case may match). A select
//     runs exactly one case, so only its cases are joined.
//   - A loop body starts from a copy of the entry state, and its end
//     state is joined with the entry state.
//   - A go statement's function literal starts from a fresh state: it
//     runs concurrently. Its arguments, like a deferred call's, are
//     evaluated where the statement stands. A deferred call itself is
//     not applied, so a deferred Unlock keeps its lock held to the
//     end, and a deferred function literal is visited as an
//     expression at the defer, whose state stands in for the
//     unknowable state at exit.

// pathHooks is one analyzer's side of the walk.
type pathHooks[S any] interface {
	// fresh is the state on entry to a function or goroutine.
	fresh() S
	// fork copies s for a branch.
	fork(s S) S
	// join merges the end states of two paths that meet.
	join(a, b S) S
	// visit applies one expression node's effect; false skips the
	// node's children.
	visit(n ast.Node, s S) bool
}

type flow[S any] struct {
	info  *types.Info
	hooks pathHooks[S]
}

// body walks a function body from s.
func (f flow[S]) body(b *ast.BlockStmt, s S) {
	f.block(b.List, s)
}

// block walks statements in order, reporting whether every path
// through them leaves the block early.
func (f flow[S]) block(list []ast.Stmt, s S) (S, bool) {
	for _, st := range list {
		var term bool
		if s, term = f.stmt(st, s); term {
			return s, true
		}
	}
	return s, false
}

func (f flow[S]) stmt(st ast.Stmt, s S) (S, bool) {
	h := f.hooks
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		return f.block(st.List, s)
	case *ast.LabeledStmt:
		return f.stmt(st.Stmt, s)
	case *ast.BranchStmt:
		return s, true
	case *ast.IfStmt:
		s, _ = f.stmt(st.Init, s)
		f.expr(st.Cond, s)
		then, thenTerm := f.block(st.Body.List, h.fork(s))
		if st.Else == nil {
			if thenTerm {
				return s, false
			}
			return h.join(s, then), false
		}
		els, elseTerm := f.stmt(st.Else, h.fork(s))
		switch {
		case thenTerm && elseTerm:
			return s, true
		case thenTerm:
			return els, false
		case elseTerm:
			return then, false
		}
		return h.join(then, els), false
	case *ast.ForStmt:
		s, _ = f.stmt(st.Init, s)
		f.expr(st.Cond, s)
		body, _ := f.block(st.Body.List, h.fork(s))
		body, _ = f.stmt(st.Post, body)
		return h.join(s, body), false
	case *ast.RangeStmt:
		f.expr(st.X, s)
		body, _ := f.block(st.Body.List, h.fork(s))
		return h.join(s, body), false
	case *ast.SwitchStmt:
		s, _ = f.stmt(st.Init, s)
		f.expr(st.Tag, s)
		return f.cases(st.Body, s), false
	case *ast.TypeSwitchStmt:
		s, _ = f.stmt(st.Init, s)
		s, _ = f.stmt(st.Assign, s)
		return f.cases(st.Body, s), false
	case *ast.SelectStmt:
		var out S
		live := false
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			cs, _ := f.stmt(cc.Comm, h.fork(s))
			cs, term := f.block(cc.Body, cs)
			switch {
			case term:
			case live:
				out = h.join(out, cs)
			default:
				out, live = cs, true
			}
		}
		if !live {
			return s, len(st.Body.List) > 0
		}
		return out, false
	case *ast.GoStmt:
		f.exprs(st.Call.Args, s)
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			f.body(fl.Body, h.fresh())
		}
	case *ast.DeferStmt:
		f.exprs(st.Call.Args, s)
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			f.expr(fl, s)
		}
	case *ast.ReturnStmt:
		f.exprs(st.Results, s)
		return s, true
	case *ast.ExprStmt:
		f.expr(st.X, s)
		if f.isPanic(st.X) {
			return s, true
		}
	default:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				f.expr(e, s)
				return false
			}
			return true
		})
	}
	return s, false
}

// cases walks a switch body: each case from a copy of s, joined with s
// unless it leaves early.
func (f flow[S]) cases(body *ast.BlockStmt, s S) S {
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		cs := f.hooks.fork(s)
		f.exprs(cc.List, cs)
		cs, term := f.block(cc.Body, cs)
		if !term {
			s = f.hooks.join(s, cs)
		}
	}
	return s
}

// expr visits e's nodes in source order.
func (f flow[S]) expr(e ast.Expr, s S) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		return n != nil && f.hooks.visit(n, s)
	})
}

func (f flow[S]) exprs(list []ast.Expr, s S) {
	for _, e := range list {
		f.expr(e, s)
	}
}

// isPanic reports whether e calls the panic builtin.
func (f flow[S]) isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := f.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
