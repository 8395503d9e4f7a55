package lint

import (
	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/widget"
)

// A spec gives the linter what the interpreter does not check about a
// command's arguments: which are deferred scripts, expressions, window
// paths or bindings, and for the irregular commands, a custom check.
// The bounds on a command's arguments, its usage and its subcommands
// are the interpreter's own: the rows the command is registered with
// (tcl.Row).
type spec struct {
	// scriptArgs / exprArgs are 1-based argument indices holding full
	// deferred scripts or expressions.
	scriptArgs []int
	exprArgs   []int
	// bindArgs are 1-based argument indices holding a binding sequence,
	// which the script to bind to it follows.
	bindArgs []int
	// pathArgs are 1-based argument indices holding widget path names;
	// -1 means every argument.
	pathArgs []int
	// check, if set, runs after the generic checks for irregular
	// commands (if, expr, after, send, widget creation, ...).
	check func(l *linter, c cmdNode)
}

// Registry is the set of command rows and specs a lint unit is checked
// against. Build one with NewRegistry and share it across units.
type Registry struct {
	rows  map[string]*tcl.Row
	specs map[string]*spec
	// widgets holds, by creation command, the row of the command of
	// each widget it creates.
	widgets map[string]*tcl.Row
	// subSpecs holds the specs of widget subcommands, by creation
	// command and subcommand words ("text tag bind"). Their argument
	// indices count the widget's path as word 0.
	subSpecs map[string]*spec
}

// anyWidget is the row of a widget command whose class the linter does
// not know: it needs a subcommand.
var anyWidget = tcl.Row{Min: 1, Max: -1}

// Known reports whether name is a known command.
func (r *Registry) Known(name string) bool { return r.rows[name] != nil }

// AddKnown registers extra command names (application-specific commands
// such as wish's "screenshot"), with no bounds on their arguments.
func (r *Registry) AddKnown(names ...string) {
	for _, n := range names {
		if r.rows[n] == nil {
			r.rows[n] = &tcl.Row{Name: n, Max: -1}
		}
	}
}

// NewRegistry builds the command registry the linter checks against
// from the rows the commands are registered with: the Tcl built-ins
// (tcl.Builtins), the Tk intrinsics (tk.Commands), the widget classes
// (widget.Commands) and their widgets' commands (widget.Instances).
func NewRegistry() *Registry {
	r := &Registry{rows: make(map[string]*tcl.Row), widgets: make(map[string]*tcl.Row), specs: map[string]*spec{
		// Tcl.
		"while":   {exprArgs: []int{1}, scriptArgs: []int{2}},
		"for":     {scriptArgs: []int{1, 3, 4}, exprArgs: []int{2}},
		"foreach": {scriptArgs: []int{3}},
		"if":      {check: checkIf},
		"catch":   {scriptArgs: []int{1}},
		"proc":    {scriptArgs: []int{3}},
		"eval":    {check: checkEval},
		"time":    {scriptArgs: []int{1}},
		"expr":    {check: checkExprCmd},
		// Tk.
		"bind":      {pathArgs: []int{1}, bindArgs: []int{2}},
		"destroy":   {pathArgs: []int{-1}},
		"after":     {check: checkAfter},
		"selection": {check: checkSelection},
		"send":      {check: checkSend},
		"wm":        {pathArgs: []int{2}},
		"raise":     {pathArgs: []int{1}},
		"lower":     {pathArgs: []int{1}},
	}, subSpecs: map[string]*spec{
		"canvas bind":   {bindArgs: []int{3}},
		"text tag bind": {bindArgs: []int{4}},
	}}
	for _, rows := range [][]tcl.Row{tcl.Builtins(), tk.Commands(), widget.Commands()} {
		for i := range rows {
			r.rows[rows[i].Name] = &rows[i]
		}
	}
	for class, row := range widget.Instances() {
		r.specs[class] = &spec{check: checkWidgetCreate}
		r.widgets[class] = &row
	}
	return r
}

// prefixOptions are configuration options whose value is a command
// prefix: the widget appends arguments (scroll positions, scale values)
// before evaluating, so only the leading command word can be checked.
var prefixOptions = map[string]bool{
	"-scroll":         true,
	"-scrollcommand":  true,
	"-xscroll":        true,
	"-yscroll":        true,
	"-xscrollcommand": true,
	"-yscrollcommand": true,
}

// prefixCommandClasses are widget classes whose -command option is a
// prefix (extra arguments appended) rather than a complete script.
var prefixCommandClasses = map[string]bool{
	"scrollbar": true,
	"scale":     true,
}
