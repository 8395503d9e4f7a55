package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Argument-lifetime analysis. A command procedure's args, like argv in
// Tcl's C interface, is valid only during the call: the interpreter
// takes the words from a stack it reuses (tcl.CmdFunc). The analyzer
// finds every command procedure, declared or literal (takesWords), and
// reports where its args, a subslice of it, or a value that holds one
// is kept past the call: stored in a field, a map, a package-level
// variable or a variable outside the command, sent on a channel,
// returned, handed to a goroutine, or captured by a closure that is
// kept so or passed to a function the analyzer cannot follow.
// A local variable assigned such a value carries it on, whatever the
// path. Calls to same-package functions and methods, and through an
// interface to the package's methods that implement it, are followed
// one call level deep, as the lock-order analyzer follows them: the
// callee, and the functions it calls in turn, are checked with the
// parameter given the words as the args, and a callee that returns
// that parameter hands the words back to its caller.

// argvSink is one place a function keeps the words: what keeps them,
// and the callee that does when it is not the function itself.
type argvSink struct {
	pos  token.Pos
	kind string
	via  *types.Func
}

// argvKey names one analysis of a callee: the function, the parameter
// that holds the words, and the call levels left to follow.
type argvKey struct {
	fn           *types.Func
	param, depth int
}

type argvPass struct {
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	memo  map[argvKey]*argvWalk
}

// checkArgv analyzes one package.
func checkArgv(p *goPackage) []Diag {
	cmd := cmdFuncSig(p.types)
	if cmd == nil {
		return nil
	}
	a := &argvPass{info: p.info, decls: make(map[*types.Func]*ast.FuncDecl), memo: make(map[argvKey]*argvWalk)}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
					a.decls[fn] = fd
				}
			}
		}
	}
	var diags []Diag
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var sig *types.Signature
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := p.info.Defs[n.Name].(*types.Func); ok {
					sig, body = fn.Type().(*types.Signature), n.Body
				}
			case *ast.FuncLit:
				sig, _ = p.info.TypeOf(n).(*types.Signature)
				body = n.Body
			}
			if body == nil || sig == nil || !takesWords(sig, cmd) {
				return true
			}
			for _, s := range a.walk(n, body, sig, sig.Params().Len()-1, 2, true).sinks {
				pos := p.fset.Position(s.pos)
				via := ""
				if s.via != nil {
					via = fmt.Sprintf(" (via call to %s)", funcName(s.via))
				}
				diags = append(diags, Diag{
					File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "argv",
					Msg: fmt.Sprintf("a command's args are kept in %s%s; they are valid only during the call, so keep a copy (slices.Clone)", s.kind, via),
				})
			}
			return true
		})
	}
	return diags
}

// takesWords reports whether a function of signature sig is a command
// procedure: it takes the words last, as a tcl.CmdFunc does, and
// returns a command's results, as a tcl.CmdFunc and the subcommand
// procedures tk's onWindow and the widget rows run do.
func takesWords(sig, cmd *types.Signature) bool {
	n := sig.Params().Len()
	return n > 0 && types.Identical(sig.Params().At(n-1).Type(), cmd.Params().At(1).Type()) &&
		types.Identical(sig.Results(), cmd.Results())
}

// cmdFuncSig returns tcl.CmdFunc's signature when pkg is package tcl
// or imports it.
func cmdFuncSig(pkg *types.Package) *types.Signature {
	if pkg == nil {
		return nil
	}
	for _, q := range append([]*types.Package{pkg}, pkg.Imports()...) {
		if tn, ok := q.Scope().Lookup("CmdFunc").(*types.TypeName); ok && q.Name() == "tcl" {
			sig, _ := tn.Type().Underlying().(*types.Signature)
			return sig
		}
	}
	return nil
}

// argvWalk is one function's analysis: the variables that hold the
// words, and what it found.
type argvWalk struct {
	a       *argvPass
	fn      ast.Node // the function, for telling its own variables
	body    *ast.BlockStmt
	tainted map[types.Object]bool
	depth   int  // call levels still to follow
	command bool // fn is the command, whose returns are sinks
	sinks   []argvSink
	returns bool
}

// walk analyzes the function fn, of signature sig, whose param'th
// parameter holds the words.
func (a *argvPass) walk(fn ast.Node, body *ast.BlockStmt, sig *types.Signature, param, depth int, command bool) *argvWalk {
	w := &argvWalk{a: a, fn: fn, body: body, tainted: make(map[types.Object]bool), depth: depth, command: command}
	v := sig.Params().At(param)
	if v.Name() == "" || v.Name() == "_" {
		return w
	}
	w.tainted[v] = true
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			changed = w.carry(n) || changed
			return true
		})
	}
	w.scan(body, true)
	return w
}

// carry taints the function's own variables that n assigns a value
// holding the words, and reports whether it tainted a new one.
func (w *argvWalk) carry(n ast.Node) bool {
	changed := false
	mark := func(lhs, rhs ast.Expr) {
		if v := w.root(lhs, false); v != nil && !w.tainted[v] && w.holds(rhs) {
			w.tainted[v] = true
			changed = true
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Rhs {
				mark(n.Lhs[i], n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if len(n.Names) == len(n.Values) {
			for i := range n.Values {
				mark(n.Names[i], n.Values[i])
			}
		}
	case *ast.RangeStmt:
		if n.Value != nil && mayAlias(w.a.info.TypeOf(n.Value)) {
			mark(n.Value, n.X)
		}
	}
	return changed
}

// root returns the function's own variable an assignment to lhs stores
// into: lhs itself, or the variable whose element or struct field lhs
// is. An element of a parameter (elem) is the caller's, as is a field
// reached through a pointer. It returns nil for anything else.
func (w *argvWalk) root(lhs ast.Expr, elem bool) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, ok := w.obj(e).(*types.Var)
		if ok && v.Pos() >= w.fn.Pos() && v.Pos() < w.fn.End() && (!elem || v.Pos() >= w.body.Pos()) {
			return v
		}
	case *ast.IndexExpr:
		return w.root(e.X, true)
	case *ast.SelectorExpr:
		if sel := w.a.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal && !sel.Indirect() {
			return w.root(e.X, elem)
		}
	}
	return nil
}

func (w *argvWalk) obj(id *ast.Ident) types.Object {
	if o := w.a.info.Uses[id]; o != nil {
		return o
	}
	return w.a.info.Defs[id]
}

// mayAlias reports whether a value of type t can refer to the words:
// anything but a basic type such as a string.
func mayAlias(t types.Type) bool {
	_, basic := under(t).(*types.Basic)
	return t != nil && !basic
}

// under is t's underlying type, or nil when the type checker gave none.
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// holds reports whether e's value may refer to the words.
func (w *argvWalk) holds(e ast.Expr) bool {
	info := w.a.info
	if !mayAlias(info.TypeOf(e)) {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		return w.tainted[w.obj(e)]
	case *ast.ParenExpr:
		return w.holds(e.X)
	case *ast.SliceExpr:
		return w.holds(e.X)
	case *ast.IndexExpr:
		return w.holds(e.X)
	case *ast.StarExpr:
		return w.holds(e.X)
	case *ast.TypeAssertExpr:
		return w.holds(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && w.holds(e.X)
	case *ast.SelectorExpr:
		sel := info.Selections[e]
		return sel != nil && sel.Kind() == types.FieldVal && w.holds(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if w.holds(elt) {
				return true
			}
		}
	case *ast.FuncLit:
		return w.captures(e)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && w.holds(e.Args[0]) // a conversion
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "append" && w.appendHolds(e)
			}
		}
		for _, f := range w.follow(e) {
			if f.res.returns {
				return true
			}
		}
	}
	return false
}

// appendHolds reports whether an append's result holds the words: its
// slice does, or an element it appends does. Spread elements are
// copied, so a spread slice of strings holds nothing.
func (w *argvWalk) appendHolds(call *ast.CallExpr) bool {
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			if sl, ok := under(w.a.info.TypeOf(arg)).(*types.Slice); ok && !mayAlias(sl.Elem()) {
				continue
			}
		}
		if w.holds(arg) {
			return true
		}
	}
	return false
}

// captures reports whether a function literal refers to a variable
// that holds the words.
func (w *argvWalk) captures(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.tainted[w.a.info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// followed is one callee analysis a call leads to.
type followed struct {
	fn  *types.Func
	res *argvWalk
}

// follow analyzes the same-package functions a call runs once for each
// parameter an argument holding the words is passed to, while call
// levels remain.
func (w *argvWalk) follow(call *ast.CallExpr) []followed {
	fn := callee(w.a.info, call)
	if w.depth == 0 || fn == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	var out []followed
	for i, arg := range call.Args {
		if !w.holds(arg) {
			continue
		}
		param := min(i, sig.Params().Len()-1) // a variadic parameter takes the rest
		for _, impl := range w.a.bodies(fn) {
			out = append(out, followed{impl, w.a.callee(impl, param, w.depth-1)})
		}
	}
	return out
}

// bodies returns the same-package functions a call of fn runs: fn
// itself, or for an interface method every method of that name whose
// receiver implements the interface, in source order.
func (a *argvPass) bodies(fn *types.Func) []*types.Func {
	if a.decls[fn] != nil {
		return []*types.Func{fn}
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for m := range a.decls {
		if r := m.Type().(*types.Signature).Recv(); r != nil && m.Name() == fn.Name() && types.Implements(r.Type(), iface) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// callee returns the analysis of fn with its param'th parameter
// holding the words.
func (a *argvPass) callee(fn *types.Func, param, depth int) *argvWalk {
	key := argvKey{fn, param, depth}
	if w := a.memo[key]; w != nil {
		return w
	}
	a.memo[key] = &argvWalk{} // a recursive call finds nothing
	fd := a.decls[fn]
	w := a.walk(fd, fd.Body, fn.Type().(*types.Signature), param, depth, false)
	a.memo[key] = w
	return w
}

// scan records the sinks in a block; top is false inside a nested
// function literal, whose returns are its own.
func (w *argvWalk) scan(body *ast.BlockStmt, top bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.scan(n.Body, false)
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if w.holds(rhs) {
						w.store(n.Lhs[i])
					}
				}
			}
		case *ast.SendStmt:
			if w.holds(n.Value) {
				w.sink(n.Pos(), "a channel")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				switch {
				case !top || !w.holds(res):
				case w.command:
					w.sink(res.Pos(), "a returned value")
				default:
					w.returns = true
				}
			}
		case *ast.GoStmt:
			held := w.holds(n.Call.Fun)
			for _, arg := range n.Call.Args {
				held = held || w.holds(arg)
			}
			if held {
				w.sink(n.Pos(), "a goroutine")
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// store records an assignment of the words to lhs, unless lhs is the
// function's own variable.
func (w *argvWalk) store(lhs ast.Expr) {
	if w.root(lhs, false) != nil {
		return
	}
	kind := "a field"
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		kind = "a variable declared outside the command"
		if v, ok := w.obj(e).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			kind = "a package-level variable"
		}
	case *ast.IndexExpr:
		if _, ok := under(w.a.info.TypeOf(e.X)).(*types.Map); ok {
			kind = "a map"
		}
	case *ast.StarExpr:
		kind = "a pointer's target"
	}
	w.sink(lhs.Pos(), kind)
}

// call reports where the functions a call runs keep the words, and a
// closure holding them that is passed to a function it cannot follow.
func (w *argvWalk) call(call *ast.CallExpr) {
	for _, f := range w.follow(call) {
		for _, s := range f.res.sinks {
			w.sinks = append(w.sinks, argvSink{pos: call.Pos(), kind: s.kind, via: f.fn})
		}
	}
	if fn := callee(w.a.info, call); fn != nil && len(w.a.bodies(fn)) > 0 {
		return
	}
	for _, arg := range call.Args {
		if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok && w.captures(fl) {
			w.sink(arg.Pos(), "a closure passed to a function that may keep it")
		}
	}
}

func (w *argvWalk) sink(pos token.Pos, kind string) {
	w.sinks = append(w.sinks, argvSink{pos: pos, kind: kind})
}
