package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Tier-1 linting of Go sources: every string literal passed to an
// Eval/MustEval call is a Tcl script, extracted and linted in place.
// Raw (backtick) literals map diagnostics to their exact file
// position; interpreted literals (whose escapes make the mapping
// nonlinear) are reported at the literal's first line. Commands the
// file itself registers (in.Register("screenshot", ...)) are added to
// the known set, and procs defined by any script in the file are
// visible to all of its scripts — "send jukebox {play ...}" in one
// Eval resolves against the proc another Eval defines.

type goScript struct {
	content string
	posFn   func(off int) (line, col int)
}

func lintGoFile(fset *token.FileSet, f *ast.File, src, path string, reg *Registry) []Diag {
	scripts := extractScripts(fset, f, src)
	if len(scripts) == 0 {
		return nil
	}
	extra := registeredNames(f)

	// First pass: collect procs across every script in the file.
	procs := make(map[string]bool)
	for _, s := range scripts {
		l := newLinter(path, s.content, reg, s.posFn)
		l.procs = procs
		l.collectDefs(piece{text: s.content})
	}
	for _, n := range extra {
		procs[n] = true
	}

	var diags []Diag
	for _, s := range scripts {
		l := newLinter(path, s.content, reg, s.posFn)
		l.procs = procs
		l.lintScript(piece{text: s.content}, modeScript)
		diags = append(diags, l.diags...)
	}
	return diags
}

// extractScripts finds Tcl scripts in a Go file: string literals passed
// as the sole argument of Eval/MustEval calls (following identifier
// references to string constants, as in MustEval(figure9)), and
// literals written to script files with os.WriteFile(path, []byte(`...`)).
func extractScripts(fset *token.FileSet, f *ast.File, src string) []goScript {
	var out []goScript
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		lit := scriptLiteral(call)
		if lit == nil {
			return true
		}
		start := fset.Position(lit.Pos())
		if strings.HasPrefix(lit.Value, "`") {
			// Raw literal: content maps 1:1 onto the file.
			content := lit.Value[1 : len(lit.Value)-1]
			base := start.Offset + 1
			out = append(out, goScript{
				content: content,
				posFn: func(off int) (int, int) {
					return lineCol(src, base+off)
				},
			})
		} else {
			content, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			out = append(out, goScript{
				content: content,
				posFn: func(off int) (int, int) {
					return start.Line, start.Column
				},
			})
		}
		return true
	})
	return out
}

// scriptLiteral returns the string literal holding the Tcl script a
// call executes, or nil if the call isn't one we treat as a script
// sink. Recognized forms:
//
//	x.Eval("...") / x.MustEval("...")
//	x.MustEval(figure9)            — figure9 a string const in this file
//	os.WriteFile(path, []byte(`...`), perm)  — wish testdata scripts
func scriptLiteral(call *ast.CallExpr) *ast.BasicLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Eval", "MustEval":
		if len(call.Args) != 1 {
			return nil
		}
		return stringLit(call.Args[0])
	case "WriteFile":
		if len(call.Args) != 3 {
			return nil
		}
		// Second argument must be a []byte(lit) conversion.
		conv, ok := call.Args[1].(*ast.CallExpr)
		if !ok || len(conv.Args) != 1 {
			return nil
		}
		arr, ok := conv.Fun.(*ast.ArrayType)
		if !ok || arr.Len != nil {
			return nil
		}
		if id, ok := arr.Elt.(*ast.Ident); !ok || id.Name != "byte" {
			return nil
		}
		return stringLit(conv.Args[0])
	}
	return nil
}

// stringLit resolves e to a string BasicLit, following an identifier to
// a package-level `const name = "..."` declaration in the same file.
func stringLit(e ast.Expr) *ast.BasicLit {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			return e
		}
	case *ast.Ident:
		if e.Obj == nil || e.Obj.Kind != ast.Con {
			return nil
		}
		spec, ok := e.Obj.Decl.(*ast.ValueSpec)
		if !ok {
			return nil
		}
		for i, name := range spec.Names {
			if name.Name == e.Name && i < len(spec.Values) {
				return stringLit(spec.Values[i])
			}
		}
	}
	return nil
}

// registeredNames collects command names the file registers itself via
// Interp.Register("name", ...) calls.
func registeredNames(f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Register" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
			names = append(names, name)
		}
		return true
	})
	return names
}
