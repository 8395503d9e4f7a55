package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Opcode-completeness analysis. The protocol package declares request
// opcodes as Op<Name> constants and a NewRequest factory switch mapping
// each opcode to its <Name>Req struct; the server dispatches on a type
// switch over *<Name>Req. This analyzer cross-checks the three by
// naming convention: every Op<Name> constant must have a NewRequest
// case, and every opcode's <Name>Req type must appear in a dispatch
// type switch. Facts accumulate across all scanned packages (the
// constants and the dispatcher live in different packages) and are
// evaluated once at the end of a run.

var opConstRe = regexp.MustCompile(`^Op[A-Z]`)

// OpcodeFacts accumulates opcode declarations and coverage across
// scanned packages.
type OpcodeFacts struct {
	// ops maps Op<Name> constant names to their declaration position.
	ops map[string]token.Position
	// factoryCases is the set of Op<Name> names with a NewRequest case;
	// factorySeen records whether a NewRequest factory was found.
	factoryCases map[string]bool
	factorySeen  bool
	// dispatchTypes is the set of <Name>Req type names appearing in
	// request type switches; dispatchSeen records whether one was found.
	dispatchTypes map[string]bool
	dispatchSeen  bool
	// nameEntries is the set of Op<Name> constants keyed in an opNames
	// table (the OpName lookup used by traces and per-opcode metrics);
	// namesSeen records whether such a table was found.
	nameEntries map[string]bool
	namesSeen   bool
}

func NewOpcodeFacts() *OpcodeFacts {
	return &OpcodeFacts{
		ops:           make(map[string]token.Position),
		factoryCases:  make(map[string]bool),
		dispatchTypes: make(map[string]bool),
		nameEntries:   make(map[string]bool),
	}
}

// Collect scans one parsed file for opcode constants, NewRequest
// factory cases, and request-dispatch type switches.
func (o *OpcodeFacts) Collect(fset *token.FileSet, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			switch d.Tok {
			case token.CONST:
				for _, s := range d.Specs {
					vs, ok := s.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if opConstRe.MatchString(name.Name) {
							o.ops[name.Name] = fset.Position(name.Pos())
						}
					}
				}
			case token.VAR:
				o.collectNames(d)
			}
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			if d.Name.Name == "NewRequest" {
				o.collectFactory(d.Body)
			}
			o.collectDispatch(d.Body)
		}
	}
}

func (o *OpcodeFacts) collectFactory(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		o.factorySeen = true
		for _, c := range sw.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				if name := opName(e); name != "" {
					o.factoryCases[name] = true
				}
			}
		}
		return true
	})
}

// collectNames records the Op<Name> keys of an opNames table variable:
// the map behind OpName(), which traces and per-opcode metrics rely on
// for human-readable opcode names.
func (o *OpcodeFacts) collectNames(d *ast.GenDecl) {
	for _, s := range d.Specs {
		vs, ok := s.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if name.Name != "opNames" || i >= len(vs.Values) {
				continue
			}
			lit, ok := vs.Values[i].(*ast.CompositeLit)
			if !ok {
				continue
			}
			o.namesSeen = true
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if n := opName(kv.Key); n != "" {
					o.nameEntries[n] = true
				}
			}
		}
	}
}

// collectDispatch records case types from type switches that dispatch
// requests: a switch qualifies when at least two of its case types end
// in "Req".
func (o *OpcodeFacts) collectDispatch(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		var reqTypes []string
		for _, c := range sw.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				if name := typeName(e); strings.HasSuffix(name, "Req") {
					reqTypes = append(reqTypes, name)
				}
			}
		}
		if len(reqTypes) >= 2 {
			o.dispatchSeen = true
			for _, t := range reqTypes {
				o.dispatchTypes[t] = true
			}
		}
		return true
	})
}

// Diags evaluates the accumulated facts: every opcode needs a factory
// case (when a factory was scanned) and a dispatch arm (when a
// dispatcher was scanned).
func (o *OpcodeFacts) Diags() []Diag {
	var diags []Diag
	for name, pos := range o.ops {
		if o.factorySeen && !o.factoryCases[name] {
			diags = append(diags, Diag{
				File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "opcodes",
				Msg: fmt.Sprintf("opcode %s has no case in the NewRequest factory", name),
			})
		}
		reqType := strings.TrimPrefix(name, "Op") + "Req"
		if o.dispatchSeen && !o.dispatchTypes[reqType] {
			diags = append(diags, Diag{
				File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "opcodes",
				Msg: fmt.Sprintf("opcode %s has no *%s dispatch arm in any request type switch", name, reqType),
			})
		}
		if o.namesSeen && !o.nameEntries[name] {
			diags = append(diags, Diag{
				File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "opcodes",
				Msg: fmt.Sprintf("opcode %s has no entry in the opNames table (OpName would fall back to a number)", name),
			})
		}
	}
	return diags
}

// opName extracts an Op<Name> constant reference from a case expression
// (Ident or pkg.Ident).
func opName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if opConstRe.MatchString(e.Name) {
			return e.Name
		}
	case *ast.SelectorExpr:
		if opConstRe.MatchString(e.Sel.Name) {
			return e.Sel.Name
		}
	}
	return ""
}

// typeName extracts the base type name from a case type expression
// (*xproto.CreateWindowReq, *CreateWindowReq, CreateWindowReq).
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
