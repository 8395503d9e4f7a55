// Package lint is the static-analysis engine behind cmd/tkcheck.
//
// It has two tiers. Tier 1 is a Tcl script linter: scripts and
// expressions are read with internal/tcl's own compiler, through its
// syntax view (tcl.Parse, tcl.CheckExpr), which gives source positions
// and evaluates nothing, so the linter sees exactly the commands, words
// and syntax errors the interpreter does. Each command is checked
// against the live command registry plus a per-command
// arity/subcommand spec table. Deferred script arguments — bind
// bodies, -command options, after and send scripts — are linted
// recursively, so callback errors are caught at load time instead of
// event time. Tier 2 is five Go analyzers over packages type-checked
// with go/types: lock discipline driven by "guarded by mu" field
// annotations, the whole-program lock-order graph, command procedures
// that keep their args past the call, the metrics-name registry, and
// package doc comments. See docs/static-analysis.md.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A Diag is one diagnostic, positioned at a 1-based line and column.
// Rule doubles as the analyzer name in machine-readable output:
// "parse", "unknown-command", "arity", "expr", "path", "options",
// "locks", "lockorder", "argv", "metrics", "pkgdoc".
type Diag struct {
	File string
	Line int
	Col  int
	Rule string
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Msg, d.Rule)
}

// SortDiags orders diagnostics by file, then position, then rule and
// message, so a run's output is a deterministic function of its inputs
// regardless of analyzer scheduling.
func SortDiags(diags []Diag) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// jsonDiag is the wire form of one diagnostic in -json output. The
// field set is the contract documented in docs/static-analysis.md;
// adding fields is fine, renaming or removing them is not.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

type jsonReport struct {
	Problems    int        `json:"problems"`
	Diagnostics []jsonDiag `json:"diagnostics"`
}

// WriteJSON emits diagnostics as a single JSON document: an object with
// a "problems" count and a "diagnostics" array (never null), each entry
// carrying file/line/col/analyzer/severity/message.
func WriteJSON(w io.Writer, diags []Diag) error {
	rep := jsonReport{Problems: len(diags), Diagnostics: make([]jsonDiag, 0, len(diags))}
	for _, d := range diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
			File: d.File, Line: d.Line, Col: d.Col,
			Analyzer: d.Rule, Severity: "error", Message: d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// lineCol converts a byte offset into src to a 1-based line and column.
func lineCol(src string, off int) (int, int) {
	if off > len(src) {
		off = len(src)
	}
	line := 1 + strings.Count(src[:off], "\n")
	col := off - strings.LastIndexByte(src[:off], '\n')
	return line, col
}

// LintScriptSource lints one Tcl script held in a string. name is used
// as the file name in diagnostics.
func LintScriptSource(name, src string, reg *Registry) []Diag {
	l := newLinter(name, src, reg, nil)
	l.run()
	return l.diags
}
