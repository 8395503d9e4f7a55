package tcl

import (
	"os"
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanics property: arbitrary byte strings either evaluate
// or return an error — the parser must not crash or hang.
func TestParserNeverPanics(t *testing.T) {
	in := New()
	// Remove commands with side effects before fuzzing.
	for _, dangerous := range []string{"exec", "exit", "cd", "source", "file", "glob", "time"} {
		in.Unregister(dangerous)
	}
	f := func(script string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", script, r)
			}
		}()
		_, _ = in.Eval(script)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestExprNeverPanics property: the expression evaluator rejects garbage
// without crashing.
func TestExprNeverPanics(t *testing.T) {
	in := New()
	f := func(expr string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on expr %q: %v", expr, r)
			}
		}()
		_, _ = in.EvalExpr(expr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnterminatedConstructs all produce errors, not hangs.
func TestUnterminatedConstructs(t *testing.T) {
	in := New()
	for _, bad := range []string{
		"set a {unterminated",
		`set a "unterminated`,
		"set a [unterminated",
		"set a ${unterminated",
		"set a {nested {deeper",
		`puts "a[set b"`,
	} {
		if _, err := in.Eval(bad); err == nil {
			t.Errorf("Eval(%q) should fail", bad)
		}
	}
}

func TestDeepNestingBounded(t *testing.T) {
	in := New()
	// Deeply nested command substitution hits the recursion limit
	// gracefully.
	script := strings.Repeat("[set x ", 2000) + "1" + strings.Repeat("]", 2000)
	if _, err := in.Eval("set y " + script); err == nil {
		t.Fatal("expected nesting error")
	}
}

func TestEnvArray(t *testing.T) {
	os.Setenv("TCL_TEST_ENV_VAR", "from-environment")
	in := New()
	got, err := in.Eval(`set env(TCL_TEST_ENV_VAR)`)
	if err != nil || got != "from-environment" {
		t.Fatalf("env array: %q %v", got, err)
	}
	if _, err := in.Eval(`set env(PATH)`); err != nil {
		t.Fatalf("PATH missing from env: %v", err)
	}
}

// TestBracketInBareWord: a lone close-bracket outside command
// substitution is ordinary text.
func TestBracketInBareWord(t *testing.T) {
	in := New()
	got, err := in.Eval("set x a]b")
	if err != nil || got != "a]b" {
		t.Fatalf("bare ]: %q %v", got, err)
	}
}

// TestQuotedBracketInCommandSubst: a quoted ']' inside [...] does not
// end the command substitution.
func TestQuotedBracketInCommandSubst(t *testing.T) {
	in := New()
	for i := 0; i < 3; i++ {
		got, err := in.Eval(`set x [string length "a]b"]`)
		if err != nil || got != "3" {
			t.Fatalf("run %d: %q %v", i, got, err)
		}
	}
	if got, err := in.Eval(`set y "[set z "q]"]"`); err != nil || got != "q]" {
		t.Fatalf("nested quotes: %q %v", got, err)
	}
}

// TestSubstituteAll covers the whole-string substitution entry point used
// by Tk.
func TestSubstituteAll(t *testing.T) {
	in := New()
	in.SetVar("n", "7")
	got, err := in.SubstituteAll(`n is $n, sum [expr 1+1], tab\t.`)
	if err != nil || got != "n is 7, sum 2, tab\t." {
		t.Fatalf("SubstituteAll: %q %v", got, err)
	}
}

// TestEvalResultIsLastCommand per the evaluation model.
func TestEvalResultIsLastCommand(t *testing.T) {
	in := New()
	got, err := in.Eval("set a 1\nset b 2\nset c 3")
	if err != nil || got != "3" {
		t.Fatalf("result = %q %v", got, err)
	}
	// Empty scripts and comment-only scripts give empty results.
	if got, err := in.Eval(""); err != nil || got != "" {
		t.Fatalf("empty script: %q %v", got, err)
	}
	if got, err := in.Eval("# just a comment"); err != nil || got != "" {
		t.Fatalf("comment script: %q %v", got, err)
	}
}

// TestBackslashSequences covers the full Figure 5 table.
func TestBackslashSequences(t *testing.T) {
	in := New()
	cases := []struct{ script, want string }{
		{`set x a\nb`, "a\nb"},
		{`set x a\tb`, "a\tb"},
		{`set x a\rb`, "a\rb"},
		{`set x a\\b`, `a\b`},
		{`set x a\$b`, "a$b"},
		{`set x a\[b\]`, "a[b]"},
		{`set x a\{b\}`, "a{b}"},
		{`set x a\;b`, "a;b"},
		{`set x a\ b`, "a b"},
		{`set x \x41`, "A"},
		{`set x \101`, "A"},
		{`set x \7`, "\x07"},
	}
	for _, c := range cases {
		got, err := in.Eval(c.script)
		if err != nil || got != c.want {
			t.Errorf("Eval(%q) = %q %v, want %q", c.script, got, err, c.want)
		}
	}
}
