package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tcl"
)

// TestLintAgreesWithInterpreter: the linter reads scripts with the
// interpreter's compiler. Scripts the interpreter runs get no parse or
// expr diagnostic, and a callback whose value will not compile when it
// fires gets a parse diagnostic at the word that holds it.
func TestLintAgreesWithInterpreter(t *testing.T) {
	reg := NewRegistry()
	for _, tc := range []struct {
		src  string
		want string // the parse or expr diagnostic, or "" for none
	}{
		{`set x [list a{b]`, ""},
		{`set x [list a"b]`, ""},
		{`set x "a[list b"]"`, ""},
		{`set a(x) 1; expr {$a([string index ")x" 1]) > 0}`, ""},
		{`after 10 "set a \{"`, `m.tcl:1:11: missing close-brace [parse]`},
		{`bind . <a> "puts \["`, `m.tcl:1:13: missing close-bracket [parse]`},
		{`button .b -command "puts \"x"`, `m.tcl:1:21: missing " [parse]`},
	} {
		var got []string
		for _, d := range LintScriptSource("m.tcl", tc.src, reg) {
			if d.Rule == "parse" || d.Rule == "expr" {
				got = append(got, d.String())
			}
		}
		if strings.Join(got, "\n") != tc.want {
			t.Errorf("%s: diagnostics %q, want %q", tc.src, got, tc.want)
		}
		if tc.want == "" {
			if _, err := tcl.New().Eval(tc.src); err != nil {
				t.Errorf("%s: the interpreter fails: %v", tc.src, err)
			}
		}
	}
}

// TestLintStopsAtSyntaxError: a unit is linted up to its syntax error,
// as the interpreter runs it. The command the error cuts short is never
// invoked, so its arity is not checked, but a [script] before the error
// runs and is linted.
func TestLintStopsAtSyntaxError(t *testing.T) {
	got := LintScriptSource("s.tcl", "set a [frob] b c {x\nfrob2\n", NewRegistry())
	var lines []string
	for _, d := range got {
		lines = append(lines, d.String())
	}
	want := []string{
		`s.tcl:1:18: missing close-brace [parse]`,
		`s.tcl:1:8: unknown command "frob" [unknown-command]`,
	}
	assertDiags(t, lines, want)
}

// TestConditionScriptLintedOnce: a [script] in an unbraced condition
// runs once, as a substitution in the word, and is reported once.
func TestConditionScriptLintedOnce(t *testing.T) {
	var got []string
	for _, d := range LintScriptSource("d.tcl", "if [frob] {puts x}\n", NewRegistry()) {
		got = append(got, d.String())
	}
	assertDiags(t, got, []string{`d.tcl:1:5: unknown command "frob" [unknown-command]`})
}

// FuzzLint: for any text the linter never panics, every diagnostic lies
// inside the text, and text the compiler rejects gets a parse
// diagnostic at the compiler's error position.
func FuzzLint(f *testing.F) {
	for _, s := range []string{
		// Figures 1-5.
		"set a 1000", "print foo; print bar", `set msg "Hello, world"`,
		`set x {a b {x1 x2}}`, `set y {$undefined [nosuchcmd]}`, "set z {a;b\nc}",
		`print $msg`, "set i 1; if $i<2 {set j 43}", `list q r $x`,
		`set msg [format "x is %s" $x]`, `set msg "\{ and \[ are special"`, `print Hello!\n`,
		// Scripts a separate scanner once misread.
		`set x [list a{b]`, `set x [list a"b]`, `set x "a[list b"]"`,
		`set a(x) 1; expr {$a([string index ")x" 1]) > 0}`,
		`after 10 "set a \{"`, `bind . <a> "puts \["`, `button .b -command "puts \"x"`,
	} {
		f.Add(s)
	}
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "*.tcl"))
	for _, path := range fixtures {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	reg := NewRegistry()
	f.Fuzz(func(t *testing.T, s string) {
		diags := LintScriptSource("f.tcl", s, reg)
		lines := strings.Split(s, "\n")
		for _, d := range diags {
			if d.Line < 1 || d.Line > len(lines) || d.Col < 1 || d.Col > len(lines[d.Line-1])+1 {
				t.Fatalf("%q: %s lies outside the text", s, d)
			}
		}
		err := tcl.Parse(s).Err
		if err == nil {
			return
		}
		line, col := lineCol(s, err.Offset)
		for _, d := range diags {
			if d.Rule == "parse" && d.Line == line && d.Col == col && d.Msg == err.Msg {
				return
			}
		}
		t.Fatalf("%q: compiler error %q at %d:%d, diagnostics %v", s, err.Msg, line, col, diags)
	})
}
