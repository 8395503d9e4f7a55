package tcl

import (
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestComplete: a command is incomplete only when the compiler runs off
// the end inside a brace, bracket or quote. Lines end in a newline, as
// the shells read them.
func TestComplete(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"print \"a{\"\n", true},
		{"set s \"one\n", false},
		{"# {\n", true},
		{"", true},
		{"set a 1\n", true},
		{"proc p {} {\n", false},
		{"proc p {} {\n  return 1\n}\n", true},
		{"puts [list a\n", false},
		{"set x \"a[list b\"]\"\n", true},
		{"set x [list a{b]\n", true},
		{"puts ${name\n", false},
		{"puts \\{\n", true},
		{"puts {a}b {\n", true}, // an error before the open brace: run it and report
		{"set a(x\n", true},     // an unclosed index is an error, not a continuation
	} {
		if got := Complete(tc.src); got != tc.want {
			t.Errorf("Complete(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestParseSpans: words carry their source spans inside any braces or
// quotes, literal values, and the contents of the [scripts] they run.
func TestParseSpans(t *testing.T) {
	src := "set x [list a{b]; puts \"v=$x\\n\" {br aced}\n# c\nset y \"a\\tb\""
	syn := Parse(src)
	if syn.Err != nil {
		t.Fatalf("Err = %v", syn.Err)
	}
	type w struct {
		text, value string
		literal     bool
		scripts     []string
	}
	want := [][]w{
		{{"set", "set", true, nil}, {"x", "x", true, nil}, {"[list a{b]", "", false, []string{"list a{b"}}},
		{{"puts", "puts", true, nil}, {`v=$x\n`, "", false, nil}, {"br aced", "br aced", true, nil}},
		{{"set", "set", true, nil}, {"y", "y", true, nil}, {`a\tb`, "a\tb", true, nil}},
	}
	if len(syn.Commands) != len(want) {
		t.Fatalf("%d commands, want %d", len(syn.Commands), len(want))
	}
	cmds := []string{"set x [list a{b]", `puts "v=$x\n" {br aced}`, `set y "a\tb"`}
	for i, c := range syn.Commands {
		if got := src[c.Start:c.End]; got != cmds[i] {
			t.Errorf("command %d spans %q, want %q", i, got, cmds[i])
		}
		if len(c.Words) != len(want[i]) {
			t.Fatalf("command %d: %d words, want %d", i, len(c.Words), len(want[i]))
		}
		for j, got := range c.Words {
			ww := want[i][j]
			var scripts []string
			for _, s := range got.Scripts {
				scripts = append(scripts, src[s.Start:s.End])
			}
			if src[got.Start:got.End] != ww.text || got.Literal != ww.literal || got.Value != ww.value ||
				strings.Join(scripts, "|") != strings.Join(ww.scripts, "|") {
				t.Errorf("command %d word %d = %q literal=%v value=%q scripts=%q, want %+v",
					i, j, src[got.Start:got.End], got.Literal, got.Value, scripts, ww)
			}
		}
	}
	if c := syn.Commands[1]; !c.Words[2].Braced || c.Words[1].Braced {
		t.Errorf("Braced = %v, %v; want false, true", c.Words[1].Braced, c.Words[2].Braced)
	}
}

// TestParseStopsAtError: the error's offset points at what is wrong, the
// interpreter raises the same message, and the command the error cuts
// short keeps the words and scripts compiled before it.
func TestParseStopsAtError(t *testing.T) {
	for _, tc := range []struct {
		src, msg, at   string // at: the source from the error's offset on
		words, scripts int    // of the last command
	}{
		{"set a 1; set b [incr a] {x", "missing close-brace", "{x", 3, 1},
		{"set x [list a", "missing close-bracket", "[list a", 3, 0},
		{"puts \"a[set b 1]", `missing "`, "\"a[set b 1]", 2, 1},
		{"puts {a}b", "extra characters after close-brace", "b", 1, 0},
		{"puts [set x {a}b]", "extra characters after close-brace", "b]", 2, 0},
		{"puts $a(x", "missing )", "(x", 2, 0},
		{"puts ${x", "missing close-brace for variable name", "${x", 2, 0},
		{"puts [{\\", "missing close-brace", "{\\", 2, 0},
	} {
		syn := Parse(tc.src)
		if syn.Err == nil || syn.Err.Msg != tc.msg || tc.src[syn.Err.Offset:] != tc.at {
			t.Errorf("Parse(%q).Err = %+v, want %q at %q", tc.src, syn.Err, tc.msg, tc.at)
			continue
		}
		if _, err := New().Eval(tc.src); err == nil || err.Error() != tc.msg {
			t.Errorf("Eval(%q) = %v, want the same error", tc.src, err)
		}
		last := syn.Commands[len(syn.Commands)-1]
		n := 0
		for _, w := range last.Words {
			n += len(w.Scripts)
		}
		if len(last.Words) != tc.words || n != tc.scripts {
			t.Errorf("Parse(%q): last command has %d words and %d scripts, want %d and %d",
				tc.src, len(last.Words), n, tc.words, tc.scripts)
		}
	}
}

// TestParseLiteralValues: a literal word's Value is exactly the argument
// the interpreter passes. The recorder copies the words: a command's
// args are valid only during the call.
func TestParseLiteralValues(t *testing.T) {
	in := New()
	var args []string
	in.Register("rec", func(_ *Interp, a []string) (string, error) {
		args = slices.Clone(a)
		return "", nil
	})
	for _, src := range []string{
		`rec a {b c} "d e" f\ g`,
		`rec {x\
   y} "\x41\101\{" \[z\] a{b "" {}`,
		"rec [list \"]\"] a\"b",
	} {
		syn := Parse(src)
		if _, err := in.Eval(src); err != nil || syn.Err != nil {
			t.Fatalf("%q: eval %v, parse %v", src, err, syn.Err)
		}
		for i, w := range syn.Commands[0].Words {
			if w.Literal && w.Value != args[i] {
				t.Errorf("%q word %d: Value %q, interpreter passed %q", src, i, w.Value, args[i])
			}
		}
	}
}

// TestCheckExpr: expression syntax errors carry the offset they were
// found at, and operand scripts are listed when the expression compiles.
func TestCheckExpr(t *testing.T) {
	for _, tc := range []struct {
		src, msg, at string
	}{
		{"$x > ", "premature end of expression", ""},
		{"3 * * 4", `syntax error in expression at "* 4"`, "* 4"},
		{"1 2", `syntax error in expression "1 2"`, "2"},
		{"foo(1)", `unknown math function "foo"`, "foo(1)"},
		{"abc + 1", `syntax error in expression: unknown token "abc"`, "abc + 1"},
		{"1 + [set x", "missing close-bracket", "[set x"},
		{"1 ? 2", "missing ':' in ternary expression", ""},
	} {
		scripts, err := CheckExpr(tc.src)
		if err == nil || err.Msg != tc.msg || tc.src[err.Offset:] != tc.at || scripts != nil {
			t.Errorf("CheckExpr(%q) = %v, %+v; want %q at %q", tc.src, scripts, err, tc.msg, tc.at)
		}
	}
	src := `$a([string index ")x" 1]) > [llength "[x] y"] + "[z]"`
	scripts, err := CheckExpr(src)
	var got []string
	for _, s := range scripts {
		got = append(got, src[s.Start:s.End])
	}
	if err != nil || strings.Join(got, "|") != `string index ")x" 1|llength "[x] y"|z` {
		t.Errorf("CheckExpr(%q) = %q, %v", src, got, err)
	}
}

// TestTokenSize: the span table lives beside the tokens, not in them.
func TestTokenSize(t *testing.T) {
	if n := unsafe.Sizeof(token{}); n != 24 {
		t.Fatalf("token is %d bytes, want 24", n)
	}
}
