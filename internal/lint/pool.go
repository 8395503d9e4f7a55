package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Pool-lifetime analysis. The zero-alloc reply path hands out pooled
// values through two idioms this analyzer knows:
//
//   - w := xproto.AcquireWriter() ... xproto.ReleaseWriter(w) — an
//     acquire/release pair around a reusable wire-format Writer;
//   - bp := somePool.Get().(*T) ... somePool.Put(bp) — a raw sync.Pool
//     checkout.
//
// For every function it flags, per return path: a pooled value that is
// neither released nor deferred-released (an early return — or a panic
// — leaks the value); any use of a value after it went back to the
// pool; and pooled values escaping their function through channel
// sends, struct or container stores, or return values. A function whose
// name starts with "Acquire" may return a raw pool checkout — that is
// the accessor idiom itself.
//
// It tracks local variables within one function, on the shared
// statement walker's paths (flow.go); a deferred release, plain or
// closure-wrapped, covers all paths, and every function literal is a
// scope of its own.

// release states for one tracked value along the current path.
const (
	poolLive  = iota // checked out, not yet returned to the pool
	poolMaybe        // released on some merged paths but not all
	poolDone         // released, transferred, or handed to the caller
)

const (
	writerKind = iota // AcquireWriter/ReleaseWriter pairing
	rawKind           // pool.Get().(T) / pool.Put(x)
)

type poolVal struct {
	kind     int
	pool     string // the pool expression for rawKind ("framePool")
	acquired token.Position
	state    int
	deferred bool // a deferred release covers every exit path
}

// poolVals is the per-path state: the tracked values by variable.
type poolVals map[types.Object]*poolVal

// checkPoolLifetime analyzes one package.
func checkPoolLifetime(p *goPackage) []Diag {
	var diags []Diag
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := &poolAnalyzer{fset: p.fset, info: p.info, funcName: fd.Name.Name}
			a.flow = flow[poolVals]{info: p.info, hooks: a}
			a.flow.body(fd.Body, a.fresh())
			diags = append(diags, a.diags...)
		}
	}
	return diags
}

type poolAnalyzer struct {
	flow     flow[poolVals]
	fset     *token.FileSet
	info     *types.Info
	funcName string
	diags    []Diag
}

func (a *poolAnalyzer) diag(pos token.Pos, format string, args ...any) {
	p := a.fset.Position(pos)
	a.diags = append(a.diags, Diag{
		File: p.Filename, Line: p.Line, Col: p.Column, Rule: "pool",
		Msg: fmt.Sprintf(format, args...),
	})
}

func (a *poolAnalyzer) fresh() poolVals { return make(poolVals) }

func (a *poolAnalyzer) fork(vals poolVals) poolVals {
	c := make(poolVals, len(vals))
	for k, v := range vals {
		vv := *v
		c[k] = &vv
	}
	return c
}

// join folds another path's end state into vals.
func (a *poolAnalyzer) join(vals, other poolVals) poolVals {
	for k, v := range vals {
		o, ok := other[k]
		if !ok {
			continue
		}
		if o.state != v.state {
			v.state = poolMaybe
		}
		v.deferred = v.deferred && o.deferred
	}
	for k, o := range other {
		if _, ok := vals[k]; !ok {
			vv := *o
			vals[k] = &vv
		}
	}
	return vals
}

// exit reports every tracked value still live where a path leaves the
// function.
func (a *poolAnalyzer) exit(pos token.Pos, vals poolVals) {
	for obj, v := range vals {
		if v.state == poolLive && !v.deferred {
			what := "pool checkout"
			if v.kind == writerKind {
				what = "AcquireWriter result"
			}
			a.diag(pos, "%s %q (acquired at line %d) is not released on this return path (missing defer?)",
				what, obj.Name(), v.acquired.Line)
		}
	}
}

// visit flags uses of released values; a function literal is analyzed
// as a scope of its own.
func (a *poolAnalyzer) visit(n ast.Node, vals poolVals) bool {
	switch n := n.(type) {
	case *ast.Ident:
		a.useCheck(n, vals)
	case *ast.FuncLit:
		a.flow.body(n.Body, a.fresh())
		return false
	}
	return true
}

func (a *poolAnalyzer) stmt(st ast.Stmt, vals poolVals) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		a.assign(st, vals)
		return true
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if obj := a.releaseTarget(call, vals); obj != nil {
			v := vals[obj]
			if v.state == poolDone && !v.deferred {
				a.diag(call.Pos(), "pooled value %q released twice", obj.Name())
			}
			v.state = poolDone
			return true
		}
	case *ast.SendStmt:
		a.flow.expr(st.Chan, vals)
		if id, ok := st.Value.(*ast.Ident); ok {
			if v := vals[a.info.Uses[id]]; v != nil {
				a.useCheck(id, vals)
				what, release := "pool checkout", v.pool+".Put"
				if v.kind == writerKind {
					what, release = "pooled Writer", "ReleaseWriter"
				}
				a.diag(st.Pos(), "%s %q escapes through a channel send (pair it with %s in this function instead)", what, id.Name, release)
				// Marked done so one escape isn't also reported as a
				// leak.
				v.state = poolDone
				return true
			}
		}
		a.flow.expr(st.Value, vals)
		return true
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			if id, ok := e.(*ast.Ident); ok {
				if v := vals[a.info.Uses[id]]; v != nil && v.state == poolLive {
					v.state = poolDone
					if v.kind == rawKind && strings.HasPrefix(a.funcName, "Acquire") {
						continue // the accessor idiom hands the value to the caller
					}
					a.diag(e.Pos(), "pooled value %q escapes via return (the pool can reclaim it while the caller still uses it)", id.Name)
					continue
				}
			}
			a.flow.expr(e, vals)
		}
		return true
	case *ast.DeferStmt:
		// defer ReleaseWriter(w), and a deferred function literal that
		// releases w, cover every path.
		ast.Inspect(st.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj := a.releaseTarget(call, vals); obj != nil {
					vals[obj].deferred = true
					vals[obj].state = poolDone
				}
			}
			return true
		})
	}
	return false
}

// assign handles both acquisition forms and escape-by-store.
func (a *poolAnalyzer) assign(s *ast.AssignStmt, vals poolVals) {
	// Escape: a tracked value stored through a selector or index
	// outlives the function's control of it.
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		id, ok := s.Rhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := a.info.Uses[id]
		if v := vals[obj]; v == nil || v.state != poolLive {
			continue
		}
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			a.diag(s.Pos(), "pooled value %q escapes via store into a struct or container (the pool can reclaim it out from under the holder)", id.Name)
			// One report per value: the store is the bug, later
			// appearances of the identifier are the same escape.
			delete(vals, obj)
		}
	}
	a.flow.exprs(s.Rhs, vals)
	for _, e := range s.Lhs {
		// Writes through *x or x[i] are uses of x itself.
		if _, isIdent := e.(*ast.Ident); !isIdent {
			a.flow.expr(e, vals)
		}
	}
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := a.info.ObjectOf(id)
	if obj == nil {
		return
	}
	if kind, pool, ok := a.acquireSource(s.Rhs[0]); ok {
		vals[obj] = &poolVal{
			kind: kind, pool: pool,
			acquired: a.fset.Position(s.Rhs[0].Pos()),
		}
		return
	}
	// Rebinding a variable drops tracking of the old value.
	delete(vals, obj)
}

// acquireSource recognizes the two checkout idioms.
func (a *poolAnalyzer) acquireSource(e ast.Expr) (kind int, pool string, ok bool) {
	switch v := e.(type) {
	case *ast.CallExpr:
		if calleeName(a.info, v) == "AcquireWriter" {
			return writerKind, "", true
		}
	case *ast.TypeAssertExpr:
		if call, isCall := v.X.(*ast.CallExpr); isCall {
			if pool, isGet := a.poolCall(call, "Get"); isGet {
				return rawKind, pool, true
			}
		}
	}
	return 0, "", false
}

// poolCall reports whether call invokes a sync.Pool's method of that
// name, and returns the pool expression.
func (a *poolAnalyzer) poolCall(call *ast.CallExpr, method string) (string, bool) {
	fn := callee(a.info, call)
	if fn == nil || fn.FullName() != "(*sync.Pool)."+method {
		return "", false
	}
	return types.ExprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X), true
}

// releaseTarget recognizes ReleaseWriter(x) and pool.Put(x) for a
// tracked x, returning x's variable.
func (a *poolAnalyzer) releaseTarget(call *ast.CallExpr, vals poolVals) types.Object {
	if len(call.Args) != 1 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := a.info.Uses[id]
	v := vals[obj]
	if v == nil {
		return nil
	}
	switch v.kind {
	case writerKind:
		if calleeName(a.info, call) == "ReleaseWriter" {
			return obj
		}
	case rawKind:
		if pool, ok := a.poolCall(call, "Put"); ok && pool == v.pool {
			return obj
		}
	}
	return nil
}

// useCheck flags a read of a value that already went back to the pool.
func (a *poolAnalyzer) useCheck(id *ast.Ident, vals poolVals) {
	obj := a.info.Uses[id]
	if v := vals[obj]; v != nil && v.state == poolDone && !v.deferred {
		a.diag(id.Pos(), "use of pooled value %q after it was released to the pool", id.Name)
		// One report per value: further uses are the same bug.
		delete(vals, obj)
	}
}
