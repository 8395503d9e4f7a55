package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"sort"
	"strings"
)

// Metrics-name registry analysis. Every obs counter/gauge/histogram
// name constructed in Go must appear in the documented metrics
// registry, and every documented name must be constructed somewhere —
// the observability surface cannot silently drift in either direction.
//
// Code side: string arguments to .Counter(...) / .Gauge(...) /
// .Histogram(...) calls. A name is any constant string expression —
// a literal, a constant such as fault's CtrJitter, or constants
// joined with + — as the type checker evaluates it. One level of
// wrapper function is resolved (a function that forwards one of its
// string parameters into a metric accessor names metrics at its call
// sites, like fault.Conn.inject), and "prefix." + expr concatenations
// normalize to the pattern "prefix.*".
//
// Doc side: fenced code blocks tagged "metrics-registry" in Markdown
// files (docs/observability.md holds the canonical one). Each
// non-comment line's first field is a metric name; <placeholder>
// segments normalize to "*", so "requests.<OpName>" matches the
// code-side pattern "requests.*".
//
// This is a cross-target facts accumulator: names are collected per
// package and per document, and the two sides are compared only once
// both have been seen, so partial runs (Go files only, or docs only)
// stay silent.

type metricSite struct {
	file string
	line int
	col  int
}

// MetricsFacts accumulates metric names across packages and documents.
type MetricsFacts struct {
	codeSeen bool
	docSeen  bool
	code     map[string]metricSite // name or "prefix.*" pattern -> first site
	doc      map[string]metricSite // normalized doc name -> site
	extra    []Diag                // site-local problems (dynamic names)
}

// NewMetricsFacts returns empty accumulation state.
func NewMetricsFacts() *MetricsFacts {
	return &MetricsFacts{
		code: make(map[string]metricSite),
		doc:  make(map[string]metricSite),
	}
}

func earlierSite(a, b metricSite) bool {
	if a.file != b.file {
		return a.file < b.file
	}
	if a.line != b.line {
		return a.line < b.line
	}
	return a.col < b.col
}

var metricAccessors = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// collectPackage gathers metric names from one package. The first
// pass finds the wrappers: functions that pass one of their own
// parameters to an accessor. The second records the names at accessor
// and wrapper call sites.
func (m *MetricsFacts) collectPackage(p *goPackage) {
	wrappers := make(map[*types.Func]int)
	for pass := 0; pass < 2; pass++ {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					accessor := isSel && metricAccessors[sel.Sel.Name] && len(call.Args) == 1
					i, isWrapper := wrappers[callee(p.info, call)]
					switch {
					case accessor:
						i = 0
					case !isWrapper || i >= len(call.Args):
						return true
					}
					arg := call.Args[i]
					if param := paramIndex(p.info, fn, arg); param >= 0 {
						// The enclosing function forwards a name: its
						// call sites supply the names.
						if pass == 0 && accessor {
							wrappers[fn] = param
						}
					} else if pass == 1 {
						m.recordCodeName(p, arg)
					}
					return true
				})
			}
		}
	}
	m.codeSeen = true
}

// paramIndex returns the position of the parameter of fn that arg
// names, or -1.
func paramIndex(info *types.Info, fn *types.Func, arg ast.Expr) int {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok || fn == nil {
		return -1
	}
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if info.Uses[id] == params.At(i) {
			return i
		}
	}
	return -1
}

func (m *MetricsFacts) recordCodeName(p *goPackage, arg ast.Expr) {
	pos := p.fset.Position(arg.Pos())
	site := metricSite{file: pos.Filename, line: pos.Line, col: pos.Column}
	add := func(name string) {
		if cur, ok := m.code[name]; !ok || earlierSite(site, cur) {
			m.code[name] = site
		}
	}
	if s, ok := stringConst(p.info, arg); ok {
		add(s)
		return
	}
	// "prefix." + dynamic normalizes to the pattern "prefix.*".
	if bin, ok := ast.Unparen(arg).(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		if s, ok := stringConst(p.info, bin.X); ok && s != "" {
			add(s + "*")
			return
		}
	}
	m.extra = append(m.extra, Diag{
		File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "metrics",
		Msg: "metric name is dynamic (not a string literal, package const, wrapper parameter, or \"prefix.\"+expr) and cannot be checked against the registry",
	})
}

// stringConst returns the value of a constant string expression.
func stringConst(info *types.Info, e ast.Expr) (string, bool) {
	v := info.Types[e].Value
	if v == nil || v.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(v), true
}

var (
	fenceRe       = regexp.MustCompile("^```+")
	placeholderRe = regexp.MustCompile(`<[^<>]*>`)
)

// CollectDoc gathers metric names from "metrics-registry" fenced
// blocks in one Markdown document.
func (m *MetricsFacts) CollectDoc(path string, src string) {
	inBlock := false
	for i, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if fence := fenceRe.FindString(trimmed); fence != "" {
			if inBlock {
				inBlock = false
				continue
			}
			info := strings.TrimSpace(strings.TrimPrefix(trimmed, fence))
			if info == "metrics-registry" {
				inBlock = true
				m.docSeen = true
			}
			continue
		}
		if !inBlock || trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		name := strings.Fields(trimmed)[0]
		name = placeholderRe.ReplaceAllString(name, "*")
		site := metricSite{file: path, line: i + 1, col: 1}
		if cur, ok := m.doc[name]; !ok || earlierSite(site, cur) {
			m.doc[name] = site
		}
	}
}

// nameMatches reports whether a code-side name and a doc-side entry
// refer to the same metric. Doc entries may contain "*" wildcards
// (from <placeholder> segments); a code-side pattern ("prefix.*")
// must match the doc entry exactly.
func nameMatches(code, doc string) bool {
	if code == doc {
		return true
	}
	if strings.Contains(code, "*") {
		return false
	}
	if strings.Contains(doc, "*") {
		ok, err := path.Match(doc, code)
		return err == nil && ok
	}
	return false
}

// Diags compares the two sides. Evaluation is gated on having seen
// both Go code and a registry document, so partial runs stay silent.
func (m *MetricsFacts) Diags() []Diag {
	diags := append([]Diag(nil), m.extra...)
	if !m.codeSeen || !m.docSeen {
		return diags
	}
	codeNames := sortedKeys(m.code)
	docNames := sortedKeys(m.doc)
	for _, cn := range codeNames {
		matched := false
		for _, dn := range docNames {
			if nameMatches(cn, dn) {
				matched = true
				break
			}
		}
		if !matched {
			site := m.code[cn]
			diags = append(diags, Diag{
				File: site.file, Line: site.line, Col: site.col, Rule: "metrics",
				Msg: fmt.Sprintf("metric %q is not documented in the metrics registry (add it to the metrics-registry block in docs/observability.md)", cn),
			})
		}
	}
	for _, dn := range docNames {
		matched := false
		for _, cn := range codeNames {
			if nameMatches(cn, dn) {
				matched = true
				break
			}
		}
		if !matched {
			site := m.doc[dn]
			diags = append(diags, Diag{
				File: site.file, Line: site.line, Col: site.col, Rule: "metrics",
				Msg: fmt.Sprintf("documented metric %q is not constructed anywhere in the scanned Go code (stale registry entry?)", dn),
			})
		}
	}
	return diags
}

func sortedKeys(m map[string]metricSite) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
