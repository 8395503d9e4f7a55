package tcl

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Bounds that keep the fuzz targets hermetic and fast: every invoked
// command and every loop iteration is a step, and an interpreter is
// deleted when it runs out of steps or a command's words grow too long.
const (
	fuzzSteps     = 2000
	fuzzWordMax   = 1 << 14
	fuzzLoopMax   = 50
	fuzzRepeatMax = 100
)

// fuzzInterp returns an interpreter without the commands that run
// processes, touch files or exit, and with looping commands replaced by
// doubles that stop after fuzzLoopMax iterations. A step budget cannot
// stop "while 1 {}" on its own, because that loop invokes no command.
func fuzzInterp() *Interp {
	in := New()
	in.Out = io.Discard
	for _, name := range []string{"exec", "open", "file", "glob", "cd", "source", "exit"} {
		in.Unregister(name)
	}
	steps := 0
	step := func() {
		if steps++; steps > fuzzSteps {
			in.Delete()
		}
	}
	in.Trace = func(words []string) {
		step()
		n := 0
		for _, w := range words {
			n += len(w)
		}
		if n > fuzzWordMax {
			in.Delete()
		}
	}
	// loop runs body until cond fails, break, an error or the bound.
	loop := func(cond func() (bool, error), body, next string) (string, error) {
		for i := 0; i < fuzzLoopMax; i++ {
			step()
			ok, err := cond()
			if err != nil || !ok {
				return "", err
			}
			if _, err := in.Eval(body); err != nil {
				if te, ok := err.(*Error); !ok || te.Code != ContinueStatus {
					return "", ignoreBreak(err)
				}
			}
			if _, err := in.Eval(next); err != nil {
				return "", err
			}
		}
		return "", nil
	}
	// bounded gives the command called name the procedure fn; its row's
	// bounds stay.
	bounded := func(name string, fn CmdFunc) {
		row := *in.cmds[name].Row
		row.Fn = fn
		in.Define(row)
	}
	bounded("while", func(in *Interp, args []string) (string, error) {
		return loop(func() (bool, error) { return in.EvalBool(args[1]) }, args[2], "")
	})
	bounded("for", func(in *Interp, args []string) (string, error) {
		if _, err := in.Eval(args[1]); err != nil {
			return "", err
		}
		return loop(func() (bool, error) { return in.EvalBool(args[2]) }, args[4], args[3])
	})
	bounded("time", func(in *Interp, args []string) (string, error) {
		n := 0
		_, err := loop(func() (bool, error) { n++; return n <= 3, nil }, args[1], "")
		return "0 microseconds per iteration", err
	})
	str := *in.cmds["string"].Row
	str.Subs = slices.Clone(str.Subs)
	repeat := str.Sub("repeat")
	repeat.Fn = func(in *Interp, args []string) (string, error) {
		if n, err := strconv.Atoi(args[3]); err == nil && n > fuzzRepeatMax {
			args = []string{args[0], args[1], args[2], strconv.Itoa(fuzzRepeatMax)}
		}
		return stringRepeat(in, args)
	}
	in.Define(str)
	return in
}

// outcome is what an evaluation produced, for comparing runs.
func outcome(res string, err error) string {
	if err == nil {
		return "ok " + strconv.Quote(res)
	}
	if te, ok := err.(*Error); ok {
		return fmt.Sprintf("error %d %q %q", te.Code, te.Msg, te.Info)
	}
	return fmt.Sprintf("%T %q", err, err.Error())
}

func FuzzEval(f *testing.F) {
	for _, s := range []string{
		// Figures 1-5.
		"set a 1000", "print foo; print bar", `set msg "Hello, world"`,
		`set x {a b {x1 x2}}`, `set y {$undefined [nosuchcmd]}`, "set z {a;b\nc}",
		`print $msg`, "set i 1; if $i<2 {set j 43}", `list q r $x`,
		`set msg [format "x is %s" $x]`, `set msg "\{ and \[ are special"`, `print Hello!\n`,
		// parse_test.go.
		"set a {unterminated", `set a "unterminated`, "set a [unterminated",
		"set a ${unterminated", "set a {nested {deeper", `puts "a[set b"`,
		"set x a]b", `set x [string length "a]b"]`, "set a 1\nset b 2\nset c 3", "# just a comment",
		`set x a\nb`, `set x a\\b`, `set x a\[b\]`, `set x a\ b`, `set x \x41`, `set x \101`,
		"set a 1; set b {", `set n 7; subst {n is $n, sum [expr 1+1], tab\t.}`,
		// compute.tcl-style loops.
		"set xs {}; for {set i 0} {$i < 20} {incr i} {lappend xs [expr {$i * 7 % 11}]}; llength $xs",
		"set sum 0; foreach v {1 2 3 4} {if {$v % 2 == 0} {set sum [expr {$sum + $v}]} else {set sum [expr {$sum ^ $v}]}}; set sum",
		"set i 0; set acc 0; while {$i < 10} {set acc [expr {($acc * 31 + $i) % 1000003}]; incr i 3}; set acc",
		"proc lcg {x} {return [expr {($x * 1103515245 + 12345) % 2147483648}]}; lcg [lcg 1]",
		"set a(1) x; set k 1; set b $a($k)[lindex {p q r} end]", "while 1 {}", "catch {error boom} m; set m",
		// Variable traces.
		"trace variable v w {lappend f}; trace variable v w {lappend f}; trace vdelete v w {lappend f}; set v 1; list [trace vinfo v] $f",
	} {
		f.Add(s)
	}
	if src, err := os.ReadFile("../../cmd/tkbench/compute.tcl"); err == nil {
		f.Add(string(src) + "\nchecksum 12345 10 hi")
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Cold and cached evaluations agree: S three times in one
		// interpreter (miss, admit, hit) against three whitespace-
		// prefixed variants, which are never cached, in another. Every
		// evaluation, error or not, ends at top level with its words
		// popped.
		cached, cold := fuzzInterp(), fuzzInterp()
		for i := 1; i <= 3; i++ {
			a := outcome(cached.Eval(s))
			checkIdle(t, cached)
			b := outcome(cold.Eval(strings.Repeat(" ", i) + s))
			checkIdle(t, cold)
			if a != b {
				t.Fatalf("run %d of %q: cached %s, cold %s", i, s, a, b)
			}
		}
		checkList(t, New(), s)
	})
}

// checkList checks that lindex and llength agree with ParseList on s,
// errors included, and that lindex of a built list returns its elements.
// It also checks that the list commands give the same outcomes on s and
// on a copy of it, whichever of the two a slot holds, before and after
// other lists have taken every slot.
func checkList(t *testing.T, in *Interp, s string) {
	elems, perr := ParseList(s)
	n, err := cmdLlength(in, []string{"llength", s})
	if perr != nil {
		if err == nil || err.Error() != perr.Error() {
			t.Fatalf("llength %q = %q, %v; ParseList error %v", s, n, err, perr)
		}
	} else if err != nil || n != strconv.Itoa(len(elems)) {
		t.Fatalf("llength %q = %q, %v; ParseList has %d elements", s, n, err, len(elems))
	}
	for _, idx := range []string{"-1", "0", "1", "2", strconv.Itoa(len(elems)), "end", "end-1"} {
		got, err := cmdLindex(in, []string{"lindex", s, idx})
		if perr != nil {
			if err == nil || err.Error() != perr.Error() {
				t.Fatalf("lindex %q %s = %q, %v; ParseList error %v", s, idx, got, err, perr)
			}
			continue
		}
		i, _ := listIndex(idx, len(elems))
		want := ""
		if i >= 0 && i < len(elems) {
			want = elems[i]
		}
		if err != nil || got != want {
			t.Fatalf("lindex %q %s = %q, %v; want %q", s, idx, got, err, want)
		}
	}

	c := strings.Clone(s)
	want := listViews(in, s)
	same := func(l, when string) {
		if got := listViews(in, l); !slices.Equal(got, want) {
			t.Fatalf("list commands on %q %s: %q, want %q", s, when, got, want)
		}
	}
	same(c, "with the original in a slot")
	// Lists of the same length and other content take every slot.
	for k := range listSlots {
		cmdLlength(in, []string{"llength", strings.Repeat(strconv.Itoa(k), max(len(s), 1))})
	}
	same(c, "after the slots turned over")
	same(s, "with the copy in a slot")

	if perr != nil {
		elems = strings.Fields(s)
	}
	list := FormatList(elems)
	for i, want := range elems {
		if got, err := cmdLindex(in, []string{"lindex", list, strconv.Itoa(i)}); err != nil || got != want {
			t.Fatalf("lindex [list %q] %d = %q, %v; want %q", elems, i, got, err, want)
		}
	}
}

// listIndices are the indices listViews reads.
var listIndices = []string{"-1", "0", "1", "2", "3", "end", "end-1"}

// listViews returns the outcomes of llength, lindex, lrange and foreach
// on the list s.
func listViews(in *Interp, s string) []string {
	views := []string{outcome(cmdLlength(in, []string{"llength", s}))}
	for _, idx := range listIndices {
		views = append(views, outcome(cmdLindex(in, []string{"lindex", s, idx})))
	}
	views = append(views, outcome(cmdLrange(in, []string{"lrange", s, "1", "end-1"})))
	var seen []string
	in.Register("seen", func(_ *Interp, args []string) (string, error) {
		seen = append(seen, args[1])
		return "", nil
	})
	_, err := cmdForeach(in, []string{"foreach", "e", s, "seen $e"})
	return append(views, outcome(fmt.Sprintf("%q", seen), err))
}

// fuzzOps are the integer operators FuzzExpr checks against Go.
var fuzzOps = [...]string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "<", ">", "<=", ">=", "==", "!="}

// goIntOp computes a op b as expr does on integers; ok is false when
// expr reports an error.
func goIntOp(op string, a, b int64) (r int64, ok bool) {
	bit := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case "+":
		return a + b, true
	case "-":
		return a - b, true
	case "*":
		return a * b, true
	case "/", "%":
		if b == 0 {
			return 0, false
		}
		if op == "/" {
			return a / b, true
		}
		return a % b, true
	case "<<":
		return a << uint(b&63), true
	case ">>":
		return a >> uint(b&63), true
	case "&":
		return a & b, true
	case "|":
		return a | b, true
	case "^":
		return a ^ b, true
	case "<":
		return bit(a < b), true
	case ">":
		return bit(a > b), true
	case "<=":
		return bit(a <= b), true
	case ">=":
		return bit(a >= b), true
	case "==":
		return bit(a == b), true
	}
	return bit(a != b), true
}

func FuzzExpr(f *testing.F) {
	for _, s := range []string{
		"1+2", "7%3", "- -5", "(2+3)*4", "7.0/2", "1e2", "0x10", "1/0", "1 << 4", "~0", "1.5 & 2",
		"1 ? 10 : 20", "0 ? 1 : 0 ? 2 : 3", "$i<2", "[llength {a b c}] + 1", `$s == "hello"`,
		"sqrt(16)", "pow(2, 10)", "nosuchfunc(1)", "", "1 +", "(1", "1 ? 2", "abc + 1",
		"1 ? [incr a] : [incr b]", "0 && [incr c]", `1 ? 7 : "no [nosuchcmd] here"`,
		"($x * 1103515245 + 12345) % 2147483648", "$v % 3 == 0", "($acc * 31 + [lindex $xs $i]) % 1000003",
		"$sum + $acc + [string length $up] * 1000 + $vowels",
	} {
		f.Add(s, int64(17), int64(5), uint8(0))
	}
	f.Add("", int64(math.MaxInt64), int64(-1), uint8(2))
	f.Add("", int64(-7), int64(0), uint8(3))
	f.Fuzz(func(t *testing.T, s string, a, b int64, op uint8) {
		// Cold and cached evaluations agree: S three times in one
		// interpreter (miss, admit, hit) against another interpreter
		// whose cache is emptied before each run. Syntax errors quote
		// the expression, so S cannot be varied as FuzzEval does.
		setup := "set i 1; set x 17; set s hello; set a 0; set b 0; set c 0; set v 9; set acc 2; set xs {1 2 3}; set sum 4; set up AB; set vowels 1"
		cached, cold := fuzzInterp(), fuzzInterp()
		cached.Eval(setup)
		cold.Eval(setup)
		for i := 1; i <= 3; i++ {
			cold.cache, cold.seen = nil, [seenSlots]uint64{}
			if x, y := outcome(cached.EvalExpr(s)), outcome(cold.EvalExpr(s)); x != y {
				t.Fatalf("run %d of %q: cached %s, cold %s", i, s, x, y)
			}
		}

		// Integer arithmetic matches Go's. MinInt64 has no literal: its
		// digits overflow before the minus applies.
		if a == math.MinInt64 || b == math.MinInt64 {
			return
		}
		o := fuzzOps[int(op)%len(fuzzOps)]
		e := fmt.Sprintf("%d %s %d", a, o, b)
		want, ok := goIntOp(o, a, b)
		for i := 0; i < 3; i++ {
			got, err := cold.EvalExpr(e)
			if !ok {
				if err == nil {
					t.Fatalf("expr %s = %q, want an error", e, got)
				}
				continue
			}
			if err != nil || got != strconv.FormatInt(want, 10) {
				t.Fatalf("expr %s = %q, %v; want %d", e, got, err, want)
			}
		}
	})
}
