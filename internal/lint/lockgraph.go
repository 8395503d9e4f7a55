package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lock-order analysis. The analyzer walks every function in a package,
// records which mutexes are acquired while others are held (the lock
// acquisition graph), and reports:
//
//   - any edge that contradicts a canonical order declared in a
//     machine-readable "// lock-order:" block on a struct's doc comment
//     (see parseLockOrderDecls for the syntax);
//   - any cycle in the acquisition graph, declared order or not;
//   - any acquisition of a mutex class already held: two instances of
//     one class have no order the analyzer can check, so nesting them
//     is always reported.
//
// Mutex identity is the *class*, not the instance: "Server.mu" is the
// mu field of any Server, "Farm.sessMu" is the sessMu field of any
// Farm, and a package-level "var patternMu sync.Mutex" is just
// "patternMu". The type checker names both the mutex a call locks and
// the function a call invokes, so the analysis is interprocedural one
// call level deep through same-package functions and methods: when f
// calls g while holding H, every mutex g (or a function g directly
// calls) acquires becomes an edge from H.

// chainPos places a declared mutex within the declared order: its
// chain index and its level along that chain. Mutexes on different
// chains are declared independent (never held together); mutexes at
// the same level of one chain are a leaf group (never nested).
type chainPos struct {
	chain, level int
}

// checkLockOrder analyzes one package.
func checkLockOrder(p *goPackage) []Diag {
	var diags []Diag
	rank := parseLockOrderDecls(p, &diags)

	// First pass: per-function walks collect direct acquisitions,
	// held-at acquisition edges, and calls made while holding locks.
	summaries := make(map[*types.Func]*funcSummary)
	var walks []*lockOrderWalk
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockOrderWalk{
				fset:     p.fset,
				info:     p.info,
				funcName: fd.Name.Name,
				summary:  &funcSummary{acquires: make(map[string]token.Pos), calls: make(map[*types.Func]bool)},
			}
			w.flow = flow[map[string]bool]{info: p.info, hooks: w}
			w.flow.body(fd.Body, w.fresh())
			walks = append(walks, w)
			if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
				summaries[fn] = w.summary
			}
		}
	}

	// Second pass: expand calls made under held locks into edges, one
	// call level deep (the callee's own acquisitions plus those of
	// functions the callee directly calls).
	edges := make(map[string]map[string]lockEdge)
	addEdge := func(from, to string, pos token.Pos, site string) {
		if from == to {
			return
		}
		if edges[from] == nil {
			edges[from] = make(map[string]lockEdge)
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = lockEdge{pos: pos, site: site}
		}
	}
	for _, w := range walks {
		for _, acq := range w.acqEdges {
			addEdge(acq.held, acq.acquired, acq.pos, "")
		}
		for _, call := range w.heldCalls {
			for m := range effectiveAcquires(call.callee, summaries, 1) {
				for _, h := range call.held {
					addEdge(h, m, call.pos, fmt.Sprintf(" (via call to %s)", funcName(call.callee)))
				}
			}
		}
		diags = append(diags, w.diags...)
	}

	// Declared-order check: every edge must be consistent with the
	// declaration.
	if rank != nil {
		froms := make([]string, 0, len(edges))
		for from := range edges {
			froms = append(froms, from)
		}
		sort.Strings(froms)
		for _, from := range froms {
			tos := make([]string, 0, len(edges[from]))
			for to := range edges[from] {
				tos = append(tos, to)
			}
			sort.Strings(tos)
			for _, to := range tos {
				e := edges[from][to]
				fp, fok := rank[from]
				tp, tok := rank[to]
				if !fok || !tok {
					continue
				}
				pos := p.fset.Position(e.pos)
				switch {
				case fp.chain != tp.chain:
					diags = append(diags, Diag{
						File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "lockorder",
						Msg: fmt.Sprintf("%s acquired while %s is held%s, but the lock-order declaration puts them on independent chains (they must never be held together)",
							to, from, e.site),
					})
				case fp.level == tp.level:
					diags = append(diags, Diag{
						File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "lockorder",
						Msg: fmt.Sprintf("%s acquired while %s is held%s, but both are members of the same lock-order leaf group (group members must not nest)",
							to, from, e.site),
					})
				case fp.level > tp.level:
					diags = append(diags, Diag{
						File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "lockorder",
						Msg: fmt.Sprintf("%s acquired while %s is held%s, contradicting the declared lock order (%s is ordered before %s)",
							to, from, e.site, to, from),
					})
				}
			}
		}
	}

	// Cycle check over the whole graph, declared or not.
	diags = append(diags, findLockCycles(p.fset, edges)...)
	return diags
}

// mutexOp decodes a Lock, RLock, Unlock or RUnlock call of a sync or
// obs timed mutex's method. x is the operand, x.mu in x.mu.Lock(), or
// the value a mutex is embedded in.
func mutexOp(info *types.Info, call *ast.CallExpr) (x ast.Expr, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	m := info.Selections[sel]
	if m == nil || m.Kind() != types.MethodVal || !isMutex(m.Obj().Type().(*types.Signature).Recv().Type()) {
		return nil, false, false
	}
	return ast.Unparen(sel.X), acquire, true
}

// mutexTypes are the mutexes the lock analyzers know, by package and
// type name.
var mutexTypes = map[string]bool{
	"sync.Mutex": true, "sync.RWMutex": true,
	"obs.TimedMutex": true,
}

// isMutex reports whether t is one of mutexTypes or a pointer to one.
func isMutex(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil && mutexTypes[n.Obj().Pkg().Name()+"."+n.Obj().Name()]
}

// lockClass names the mutex x denotes: "Type.field" for a field of a
// named struct type (the struct that declares the field, for a
// promoted one) and the bare name for a package-level variable. It
// returns "" for any other form, such as a mutex embedded in x, a
// local variable or an element of a slice.
func lockClass(info *types.Info, x ast.Expr) string {
	if !isMutex(info.TypeOf(x)) {
		return ""
	}
	var id *ast.Ident
	switch x := x.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		if m := info.Selections[x]; m != nil {
			t := m.Recv()
			path := m.Index()
			for _, i := range path[:len(path)-1] {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				t = t.Underlying().(*types.Struct).Field(i).Type()
			}
			if n := namedOf(t); n != nil {
				return n.Obj().Name() + "." + x.Sel.Name
			}
			return ""
		}
		id = x.Sel
	default:
		return ""
	}
	if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Name()
	}
	return ""
}

// mutexClasses lists the mutex classes a package declares.
func mutexClasses(pkg *types.Package) map[string]bool {
	classes := make(map[string]bool)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.TypeName:
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if isMutex(st.Field(i).Type()) {
					classes[name+"."+st.Field(i).Name()] = true
				}
			}
		case *types.Var:
			if isMutex(obj.Type()) {
				classes[name] = true
			}
		}
	}
	return classes
}

// funcSummary is one function's contribution to the interprocedural
// pass: the mutex classes it acquires directly and the functions it
// calls.
type funcSummary struct {
	acquires map[string]token.Pos
	calls    map[*types.Func]bool
}

type acqEdgeRec struct {
	held     string
	acquired string
	pos      token.Pos
}

type heldCallRec struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

// lockOrderWalk walks one function, tracking which mutex classes are
// held. Deferred unlocks keep their locks held, closures inherit the
// current state and go-closures start empty, as in the lock-discipline
// analyzer.
type lockOrderWalk struct {
	heldLocks
	flow      flow[map[string]bool]
	fset      *token.FileSet
	info      *types.Info
	funcName  string
	summary   *funcSummary
	acqEdges  []acqEdgeRec
	heldCalls []heldCallRec
	diags     []Diag
}

// visit applies lock effects and records call facts.
func (w *lockOrderWalk) visit(n ast.Node, held map[string]bool) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		if x, acquire, ok := mutexOp(w.info, n); ok {
			class := lockClass(w.info, x)
			switch {
			case class == "":
			case acquire:
				w.acquire(class, n.Pos(), held)
			default:
				delete(held, class)
			}
			return false
		}
		if fn := callee(w.info, n); fn != nil {
			w.summary.calls[fn] = true
			if len(held) > 0 {
				keys := make([]string, 0, len(held))
				for k := range held {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				w.heldCalls = append(w.heldCalls, heldCallRec{callee: fn, held: keys, pos: n.Pos()})
			}
		}
	case *ast.FuncLit:
		w.flow.block(n.Body.List, w.fork(held))
		return false
	}
	return true
}

// acquire records a Lock/RLock of class while held.
func (w *lockOrderWalk) acquire(class string, pos token.Pos, held map[string]bool) {
	if _, seen := w.summary.acquires[class]; !seen {
		w.summary.acquires[class] = pos
	}
	for h := range held {
		if h != class {
			w.acqEdges = append(w.acqEdges, acqEdgeRec{held: h, acquired: class, pos: pos})
			continue
		}
		p := w.fset.Position(pos)
		w.diags = append(w.diags, Diag{
			File: p.Filename, Line: p.Line, Col: p.Column, Rule: "lockorder",
			Msg: fmt.Sprintf("%s acquired in %s while another %s is already held", class, w.funcName, class),
		})
	}
	held[class] = true
}

// effectiveAcquires returns the mutexes callee acquires directly plus,
// when depth > 0, those acquired by functions callee directly calls.
func effectiveAcquires(callee *types.Func, summaries map[*types.Func]*funcSummary, depth int) map[string]bool {
	out := make(map[string]bool)
	sum := summaries[callee]
	if sum == nil {
		return out
	}
	for m := range sum.acquires {
		out[m] = true
	}
	if depth > 0 {
		for g := range sum.calls {
			if g == callee {
				continue
			}
			for m := range effectiveAcquires(g, summaries, depth-1) {
				out[m] = true
			}
		}
	}
	return out
}

// lockEdge is one acquisition-graph edge: "to" was acquired while
// "from" was held, first observed at pos.
type lockEdge struct {
	pos  token.Pos
	site string // how the edge arises, for the message
}

// findLockCycles reports each cycle in the acquisition graph once.
func findLockCycles(fset *token.FileSet, edges map[string]map[string]lockEdge) []Diag {
	nodes := make([]string, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var diags []Diag
	seen := make(map[string]bool) // normalized cycle -> reported
	state := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var stack []string
	var visit func(n string)
	visit = func(n string) {
		state[n] = 1
		stack = append(stack, n)
		tos := make([]string, 0, len(edges[n]))
		for to := range edges[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			switch state[to] {
			case 0:
				visit(to)
			case 1:
				// Back edge n -> to closes a cycle: to ... n -> to.
				i := 0
				for ; i < len(stack); i++ {
					if stack[i] == to {
						break
					}
				}
				cyc := append(append([]string{}, stack[i:]...), to)
				key := normalizeCycle(cyc)
				if seen[key] {
					continue
				}
				seen[key] = true
				e := edges[n][to]
				p := fset.Position(e.pos)
				diags = append(diags, Diag{
					File: p.Filename, Line: p.Line, Col: p.Column, Rule: "lockorder",
					Msg: fmt.Sprintf("lock-order cycle: %s%s", strings.Join(cyc, " -> "), e.site),
				})
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
	}
	for _, n := range nodes {
		if state[n] == 0 {
			visit(n)
		}
	}
	return diags
}

// normalizeCycle produces a rotation-independent key for a cycle path
// of the form a -> b -> ... -> a.
func normalizeCycle(cyc []string) string {
	body := cyc[:len(cyc)-1]
	min := 0
	for i := range body {
		if body[i] < body[min] {
			min = i
		}
	}
	rot := append(append([]string{}, body[min:]...), body[:min]...)
	return strings.Join(rot, "->")
}

// parseLockOrderDecls scans struct doc comments for "lock-order:"
// lines. The grammar, one chain per line:
//
//	// lock-order: first -> second -> {leafA, leafB}
//	// lock-order: solo
//
// "->" separates levels from outermost to innermost; "{a, b}" declares
// a leaf group whose members must never nest in each other; a bare
// name is a mutex field of the annotated struct; "Type.field" names a
// mutex field of another struct in the package, and a package-level
// mutex variable is named bare on a struct of the package that anchors
// the declaration. Separate lines are independent chains: two mutexes
// on different chains must never be held together. It returns each
// declared mutex's place, or nil when the package declares nothing.
func parseLockOrderDecls(p *goPackage, diags *[]Diag) map[string]chainPos {
	var rank map[string]chainPos
	var classes map[string]bool
	chain := 0
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if doc == nil {
					continue
				}
				for _, line := range strings.Split(doc.Text(), "\n") {
					line = strings.TrimSpace(line)
					rest, ok := strings.CutPrefix(line, "lock-order:")
					if !ok {
						continue
					}
					if rank == nil {
						rank = make(map[string]chainPos)
						classes = mutexClasses(p.types)
					}
					parseLockOrderLine(p.fset, doc.Pos(), ts.Name.Name, rest, chain, rank, classes, diags)
					chain++
				}
			}
		}
	}
	return rank
}

func parseLockOrderLine(fset *token.FileSet, pos token.Pos, owner, line string, chain int, rank map[string]chainPos, classes map[string]bool, diags *[]Diag) {
	declDiag := func(format string, args ...any) {
		p := fset.Position(pos)
		*diags = append(*diags, Diag{
			File: p.Filename, Line: p.Line, Col: p.Column, Rule: "lockorder",
			Msg: fmt.Sprintf(format, args...),
		})
	}
	for level, part := range strings.Split(line, "->") {
		part = strings.TrimSpace(part)
		var names []string
		if strings.HasPrefix(part, "{") {
			if !strings.HasSuffix(part, "}") {
				declDiag("malformed lock-order group %q (want {a, b, ...})", part)
				continue
			}
			for _, n := range strings.Split(part[1:len(part)-1], ",") {
				names = append(names, strings.TrimSpace(n))
			}
		} else {
			names = []string{part}
		}
		for _, n := range names {
			if n == "" {
				declDiag("empty name in lock-order declaration %q", line)
				continue
			}
			id := n
			if !strings.Contains(n, ".") {
				// A bare name is a field of the annotated struct, or a
				// package-level mutex variable.
				if classes[owner+"."+n] {
					id = owner + "." + n
				}
			}
			if !classes[id] {
				declDiag("lock-order declaration names %q, which is not a mutex known to this package", n)
				continue
			}
			if prev, dup := rank[id]; dup {
				declDiag("lock-order declaration names %s twice (chains %d and %d)", id, prev.chain, chain)
				continue
			}
			rank[id] = chainPos{chain: chain, level: level}
		}
	}
}
