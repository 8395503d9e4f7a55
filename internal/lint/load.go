package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// A goPackage is one Go package as the Tier 2 analyzers see it: its
// files, parsed with comments, and what the type checker found in
// them.
type goPackage struct {
	dir   string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// typeCheck type-checks each package on its own, from source. Imports
// come from the compiler's export data, which one `go list -export
// -deps` call over everything the packages import locates (building
// what the build cache lacks); an import it cannot build fails the
// whole call. Type errors in the packages themselves are left to go
// vet: the checker records what it can and the analyzers use that.
func typeCheck(fset *token.FileSet, pkgs []*goPackage) error {
	seen := make(map[string]bool)
	var paths []string
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err == nil && path != "unsafe" && !seen[path] {
					seen[path] = true
					paths = append(paths, path)
				}
			}
		}
	}
	sort.Strings(paths)
	exports, err := exportFiles(paths)
	if err != nil {
		return err
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	conf := types.Config{Importer: imp, Error: func(error) {}}
	for _, p := range pkgs {
		p.info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		p.types, _ = conf.Check(p.dir, fset, p.files, p.info)
	}
	return nil
}

// exportFiles maps each of paths, and everything they depend on, to
// its export data file.
func exportFiles(paths []string) (map[string]string, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-f", "{{.ImportPath}}={{.Export}}"}, paths...)...).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = errors.New(strings.TrimSpace(string(exit.Stderr)))
		}
		return nil, fmt.Errorf("tkcheck: the Go analyzers need export data from `go list -export`: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

// callee returns the function or method a call invokes by name, as
// declared (the generic origin for an instantiation), or nil for a
// call of a function value, a conversion or a builtin.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// calleeName is callee's name, or "" when there is no callee.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := callee(info, call); fn != nil {
		return fn.Name()
	}
	return ""
}

// funcName names a function "Type.method" or "func".
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}
