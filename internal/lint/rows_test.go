package lint

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/widget"
)

// A table is a set of command rows the interpreter enforces and the
// linter reads, and the words every script that calls them starts with.
type table struct {
	setup string
	rows  []tcl.Row
}

// tables returns the command tables: the Tcl built-ins, the Tk
// intrinsics, the widget-creation commands, and for each widget class,
// the command of a widget .w that the setup creates, so that the
// linter knows its class.
func tables(reg *Registry) map[string]table {
	tabs := map[string]table{
		"tcl":    {rows: tcl.Builtins()},
		"tk":     {rows: tk.Commands()},
		"widget": {rows: widget.Commands()},
	}
	for class, row := range reg.widgets {
		w := *row
		w.Name = ".w"
		tabs[class] = table{setup: "destroy .w\n" + class + " .w\n", rows: []tcl.Row{w}}
	}
	return tabs
}

// newTableApp returns the interpreter of a full application, every row
// installed.
func newTableApp(t *testing.T) *tcl.Interp {
	t.Helper()
	app, err := core.NewApp(core.Options{Name: "rows"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app.Interp
}

// call is one script the interpreter must reject with want.
type call struct{ script, want string }

// outOfBounds returns, for a row and for each of its subcommand rows,
// nested ones included, the calls with one argument fewer than its
// minimum and one more than its maximum, and the error each must raise:
// the row's usage after the words that name it. The argument "arg"
// names no subcommand.
func outOfBounds(row tcl.Row) []call {
	var calls []call
	// add adds the calls of a row whose words come after prefix and
	// whose usage follows shown in the message, and of its subcommand
	// rows.
	var add func(prefix, shown string, r tcl.Row)
	add = func(prefix, shown string, r tcl.Row) {
		want := `wrong # args: should be "` + strings.TrimSpace(shown+" "+r.Usage) + `"`
		args := func(n int) string { return strings.Repeat(" arg", n) }
		if r.Min > 0 {
			calls = append(calls, call{prefix + args(r.Min-1), want})
		}
		if r.Max >= 0 {
			calls = append(calls, call{prefix + args(r.Max+1), want})
		}
		for _, s := range r.Subs {
			if s.Name == "" { // the bare call, here with an empty first word
				add(prefix+" {}", shown, s)
				continue
			}
			add(prefix+" "+s.Name, shown+" "+s.Name, s)
		}
	}
	add(row.Name, row.Name, row)
	return calls
}

// TestRowsBoundArguments: for every row and every subcommand row, a
// call with one argument too few or too many fails in the interpreter
// with that row's usage, before any procedure runs (so exit and exec
// are safe to drive), and the linter reports it as an arity error.
func TestRowsBoundArguments(t *testing.T) {
	in := newTableApp(t)
	reg := NewRegistry()
	for set, tab := range tables(reg) {
		for _, row := range tab.rows {
			for _, c := range outOfBounds(row) {
				script := tab.setup + c.script
				if _, err := in.Eval(script); err == nil || err.Error() != c.want {
					t.Errorf("%s: %q: got error %v, want %s", set, script, err, c.want)
				}
				if !hasRule(LintScriptSource("t.tcl", script, reg), "arity") {
					t.Errorf("%s: %q: the linter reports no arity error", set, script)
				}
			}
		}
	}
}

// TestUnknownSubcommandListsRows: an ensemble, or a subcommand with
// subcommands of its own, called with a word that names none of its
// subcommands fails with a message that lists exactly its rows' names,
// and the linter reports it.
func TestUnknownSubcommandListsRows(t *testing.T) {
	in := newTableApp(t)
	reg := NewRegistry()
	for _, tab := range tables(reg) {
		// check checks the calls of r, whose words come after prefix,
		// and of its subcommand rows.
		var check func(prefix string, r tcl.Row)
		check = func(prefix string, r tcl.Row) {
			for _, s := range r.Subs {
				if s.Name != "" {
					check(prefix+" "+s.Name, s)
				}
			}
			if r.Subs == nil || r.Fn != nil {
				return // not an ensemble, or one whose Fn takes other words
			}
			script := tab.setup + prefix + " nosuch" + strings.Repeat(" arg", max(r.Min, 1)-1)
			_, err := in.Eval(script)
			want := `bad option "nosuch": should be `
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%q: got error %v, want %s...", script, err, want)
				return
			}
			var listed, names []string
			for _, f := range strings.FieldsFunc(strings.TrimPrefix(err.Error(), want), func(r rune) bool { return r == ',' || r == ' ' }) {
				if f != "or" {
					listed = append(listed, f)
				}
			}
			for _, s := range r.Subs {
				if s.Name != "" {
					names = append(names, s.Name)
				}
			}
			if !slices.Equal(listed, names) {
				t.Errorf("%q lists %v, want the rows %v", script, listed, names)
			}
			if !hasRule(LintScriptSource("t.tcl", script, reg), "arity") {
				t.Errorf("%q: the linter reports no bad option", script)
			}
		}
		for _, row := range tab.rows {
			check(row.Name, row)
		}
	}
}

// TestInterpreterAgreesWithLinter: calls that the linter flags, or
// flags once the script creates the widget, and that the interpreter
// once ran without complaint, now fail in both with a count or
// subcommand error.
func TestInterpreterAgreesWithLinter(t *testing.T) {
	in := newTableApp(t)
	reg := NewRegistry()
	for _, script := range []string{
		"pwd x", "pid x", "bell x", "exit 0 1",
		"break x", "continue x",
		"scan abc %d", "switch x",
		"update x", "update idletasks x",
		"wm title . a b",
		"selection clear x", "selection own . x",
		"array names a b c",
		"button .b\n.b flash x", "button .b\n.b invoke x", "button .b\n.b activate x",
		"checkbutton .c\n.c toggle x", "checkbutton .c\n.c select x",
		"listbox .lb\n.lb size x", "listbox .lb\n.lb curselection x y",
		"scrollbar .sb\n.sb get x", "scale .sc\n.sc get x", "entry .e\n.e get x",
		"text .tx\n.tx lines x", "text .tx\n.tx tag names x",
		"menu .mn\n.mn entrycount x", "menu .mn\n.mn unpost x",
		"menubutton .mb\n.mb post x", "menubutton .mb\n.mb unpost x",
		"label .l\n.l activate",
	} {
		in.Eval("foreach w [winfo children .] {destroy $w}")
		_, err := in.Eval(script)
		if err == nil || !strings.HasPrefix(err.Error(), "wrong # args") && !strings.HasPrefix(err.Error(), "bad option") {
			t.Errorf("%q: the interpreter returns %v", script, err)
		}
		if !hasRule(LintScriptSource("t.tcl", script, reg), "arity") {
			t.Errorf("%q: the linter does not flag it", script)
		}
	}
}

func hasRule(diags []Diag, rule string) bool {
	return slices.ContainsFunc(diags, func(d Diag) bool { return d.Rule == rule })
}
