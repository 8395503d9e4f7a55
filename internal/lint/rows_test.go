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

// rowSets are the command tables the interpreter enforces and the
// linter reads: the Tcl built-ins, the Tk intrinsics and the widget
// classes.
var rowSets = map[string][]tcl.Row{
	"tcl":    tcl.Builtins(),
	"tk":     tk.Commands(),
	"widget": widget.Commands(),
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
// the calls with one argument fewer than its minimum and one more than
// its maximum, and the error each must raise: the row's usage. The
// argument "arg" names no subcommand.
func outOfBounds(row tcl.Row) []call {
	var calls []call
	// add adds the calls of a row whose words come after prefix and
	// whose usage follows shown in the message.
	add := func(prefix, shown string, r tcl.Row) {
		want := `wrong # args: should be "` + strings.TrimSpace(shown+" "+r.Usage) + `"`
		args := func(n int) string { return strings.Repeat(" arg", n) }
		if r.Min > 0 {
			calls = append(calls, call{prefix + args(r.Min-1), want})
		}
		if r.Max >= 0 {
			calls = append(calls, call{prefix + args(r.Max+1), want})
		}
	}
	add(row.Name, row.Name, row)
	for _, s := range row.Subs {
		if s.Name == "" { // the bare call, here with an empty first word
			add(row.Name+" {}", row.Name, s)
			continue
		}
		add(row.Name+" "+s.Name, row.Name+" "+s.Name, s)
	}
	return calls
}

// TestRowsBoundArguments: for every row and every subcommand row, a
// call with one argument too few or too many fails in the interpreter
// with that row's usage, before any procedure runs (so exit and exec
// are safe to drive), and the linter reports it as an arity error.
func TestRowsBoundArguments(t *testing.T) {
	in := newTableApp(t)
	reg := NewRegistry()
	for set, rows := range rowSets {
		for _, row := range rows {
			for _, c := range outOfBounds(row) {
				if _, err := in.Eval(c.script); err == nil || err.Error() != c.want {
					t.Errorf("%s: %q: got error %v, want %s", set, c.script, err, c.want)
				}
				if !hasRule(LintScriptSource("t.tcl", c.script, reg), "arity") {
					t.Errorf("%s: %q: the linter reports no arity error", set, c.script)
				}
			}
		}
	}
}

// TestUnknownSubcommandListsRows: an ensemble called with a first
// argument that names none of its subcommands fails with a message that
// lists exactly its rows' names, and the linter reports it.
func TestUnknownSubcommandListsRows(t *testing.T) {
	in := newTableApp(t)
	reg := NewRegistry()
	for _, rows := range rowSets {
		for _, row := range rows {
			if row.Subs == nil || row.Fn != nil {
				continue // not an ensemble, or one whose Fn takes other words
			}
			script := row.Name + " nosuch" + strings.Repeat(" arg", max(row.Min, 1)-1)
			_, err := in.Eval(script)
			prefix := `bad option "nosuch": should be `
			if err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("%q: got error %v, want %s...", script, err, prefix)
				continue
			}
			var listed, names []string
			for _, f := range strings.FieldsFunc(strings.TrimPrefix(err.Error(), prefix), func(r rune) bool { return r == ',' || r == ' ' }) {
				if f != "or" {
					listed = append(listed, f)
				}
			}
			for _, s := range row.Subs {
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
	}
}

// TestInterpreterAgreesWithLinter: calls that the linter flagged and the
// interpreter once ran without complaint now fail in both.
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
	} {
		if _, err := in.Eval(script); err == nil {
			t.Errorf("%q: the interpreter accepts it", script)
		}
		if !hasRule(LintScriptSource("t.tcl", script, reg), "arity") {
			t.Errorf("%q: the linter does not flag it", script)
		}
	}
}

func hasRule(diags []Diag, rule string) bool {
	return slices.ContainsFunc(diags, func(d Diag) bool { return d.Rule == rule })
}
