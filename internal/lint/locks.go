package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
)

// Lock-discipline analysis. Struct fields annotated with a
// "guarded by <mutex>" comment may only be touched through the
// receiver while that mutex is held. A method establishes "held"
// either by calling recv.<mutex>.Lock() (deferred Unlocks keep it
// held; a plain Unlock releases it) or by carrying a doc comment
// saying the mutex is held on entry ("Called with s.mu held."). The
// walk follows the shared statement walker's flow (flow.go); closures
// inherit the state at their creation point except for "go func"
// closures, which start with nothing held.
//
// Only accesses through the receiver itself are tracked: a guarded
// field reached through another variable of the same type is not — a
// deliberate trade against false positives in constructors and
// helpers that own the value outright.

var (
	guardedRe = regexp.MustCompile(`guarded by (\w+)`)
	heldRe    = regexp.MustCompile(`(?:\w+\.)?(\w+)\s+held`)
)

// checkLocks analyzes one package.
func checkLocks(p *goPackage) []Diag {
	guards := collectGuards(p)
	if len(guards) == 0 {
		return nil
	}
	var diags []Diag
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 || fd.Body == nil {
				continue
			}
			recv := p.info.Defs[fd.Recv.List[0].Names[0]]
			if recv == nil {
				continue
			}
			named := namedOf(recv.Type())
			if named == nil {
				continue
			}
			held := make(map[string]bool)
			if fd.Doc != nil {
				for _, m := range heldRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
					held[m[1]] = true
				}
			}
			a := &lockAnalyzer{fset: p.fset, info: p.info, recv: recv, structName: named.Obj().Name(), guards: guards}
			a.flow = flow[map[string]bool]{info: p.info, hooks: a}
			a.flow.body(fd.Body, held)
			diags = append(diags, a.diags...)
		}
	}
	return diags
}

// collectGuards reads "guarded by X" field annotations, mapping each
// guarded field to its mutex's name.
func collectGuards(p *goPackage) map[*types.Var]string {
	guards := make(map[*types.Var]string)
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				var m []string
				if field.Comment != nil {
					m = guardedRe.FindStringSubmatch(field.Comment.Text())
				}
				if m == nil && field.Doc != nil {
					m = guardedRe.FindStringSubmatch(field.Doc.Text())
				}
				if m == nil {
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.info.Defs[name].(*types.Var); ok {
						guards[v] = m[1]
					}
				}
			}
			return true
		})
	}
	return guards
}

type lockAnalyzer struct {
	heldLocks
	flow       flow[map[string]bool]
	fset       *token.FileSet
	info       *types.Info
	recv       types.Object
	structName string
	guards     map[*types.Var]string
	diags      []Diag
}

// heldLocks supplies the walker hooks the two lock analyzers share:
// their path state is the set of mutexes held, and they act on
// expressions only (visit).
type heldLocks struct{}

func (heldLocks) fresh() map[string]bool { return make(map[string]bool) }

func (heldLocks) fork(held map[string]bool) map[string]bool { return maps.Clone(held) }

// join keeps a mutex held only if both paths hold it.
func (heldLocks) join(held, other map[string]bool) map[string]bool {
	maps.DeleteFunc(held, func(k string, _ bool) bool { return !other[k] })
	return held
}

// visit checks guarded-field accesses and applies Lock/Unlock effects.
// A read lock counts as holding the mutex: it protects reads of
// guarded fields, which is all the analyzer distinguishes.
func (a *lockAnalyzer) visit(n ast.Node, held map[string]bool) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		if x, acquire, ok := mutexOp(a.info, n); ok {
			if sel, ok := x.(*ast.SelectorExpr); ok && a.isRecv(sel.X) {
				held[sel.Sel.Name] = acquire
				return false
			}
		}
	case *ast.SelectorExpr:
		if !a.isRecv(n.X) {
			return true
		}
		if sel := a.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
			field := sel.Obj().(*types.Var)
			if mutex, guarded := a.guards[field.Origin()]; guarded && !held[mutex] {
				p := a.fset.Position(n.Sel.Pos())
				a.diags = append(a.diags, Diag{
					File: p.Filename, Line: p.Line, Col: p.Column, Rule: "locks",
					Msg: fmt.Sprintf("%s.%s (guarded by %s) accessed without holding %s",
						a.structName, field.Name(), mutex, mutex),
				})
			}
		}
		return false
	case *ast.FuncLit:
		// Closures inherit the lock state at their creation point (the
		// codebase creates and invokes them under the same lock, e.g.
		// c.reply(func(w){...}) inside handlers).
		a.flow.block(n.Body.List, a.fork(held))
		return false
	}
	return true
}

func (a *lockAnalyzer) isRecv(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && a.info.Uses[id] == a.recv
}
