package tcl

import (
	"bytes"
	"strings"
	"testing"
)

// evalOK evaluates script and fails the test on error.
func evalOK(t *testing.T, in *Interp, script string) string {
	t.Helper()
	res, err := in.Eval(script)
	if err != nil {
		t.Fatalf("Eval(%q) error: %v", script, err)
	}
	return res
}

// evalErr evaluates script and requires an error containing substr.
func evalErr(t *testing.T, in *Interp, script, substr string) {
	t.Helper()
	_, err := in.Eval(script)
	if err == nil {
		t.Fatalf("Eval(%q): expected error containing %q, got success", script, substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("Eval(%q): error %q does not contain %q", script, err, substr)
	}
}

func expect(t *testing.T, in *Interp, script, want string) {
	t.Helper()
	if got := evalOK(t, in, script); got != want {
		t.Fatalf("Eval(%q) = %q, want %q", script, got, want)
	}
}

// TestFigure1 reproduces Figure 1 of the paper: simple commands with
// fields separated by white space; commands separated by semicolons or
// newlines.
func TestFigure1(t *testing.T) {
	in := New()
	var out bytes.Buffer
	in.Out = &out
	expect(t, in, "set a 1000", "1000")
	evalOK(t, in, "print foo; print bar")
	if out.String() != "foobar" {
		t.Fatalf("print output = %q, want %q", out.String(), "foobar")
	}
	expect(t, in, "set a", "1000")
}

// TestFigure2 reproduces Figure 2: quotes and braces delimit complex
// arguments; braces suppress substitution.
func TestFigure2(t *testing.T) {
	in := New()
	expect(t, in, `set msg "Hello, world"`, "Hello, world")
	expect(t, in, `set x {a b {x1 x2}}`, "a b {x1 x2}")
	// Braces pass contents through without interpretation.
	expect(t, in, `set y {$undefined [nosuchcmd]}`, "$undefined [nosuchcmd]")
	// Semicolons inside braces are not command separators.
	expect(t, in, "set z {a;b\nc}", "a;b\nc")
}

// TestFigure3 reproduces Figure 3: dollar-sign variable substitution.
func TestFigure3(t *testing.T) {
	in := New()
	var out bytes.Buffer
	in.Out = &out
	evalOK(t, in, `set msg "Hello, world"`)
	evalOK(t, in, `print $msg`)
	if out.String() != "Hello, world" {
		t.Fatalf("print $msg wrote %q", out.String())
	}
	evalOK(t, in, "set i 1")
	evalOK(t, in, "if $i<2 {set j 43}")
	expect(t, in, "set j", "43")
}

// TestFigure4 reproduces Figure 4: bracketed command substitution.
func TestFigure4(t *testing.T) {
	in := New()
	evalOK(t, in, `set x {a b {x1 x2}}`)
	expect(t, in, `list q r $x`, "q r {a b {x1 x2}}")
	expect(t, in, `set msg [format "x is %s" $x]`, "x is a b {x1 x2}")
}

// TestFigure5 reproduces Figure 5: backslash quoting of special
// characters and control characters.
func TestFigure5(t *testing.T) {
	in := New()
	var out bytes.Buffer
	in.Out = &out
	expect(t, in, `set msg "\{ and \[ are special"`, "{ and [ are special")
	evalOK(t, in, `print Hello!\n`)
	if out.String() != "Hello!\n" {
		t.Fatalf("print wrote %q, want %q", out.String(), "Hello!\n")
	}
}

// TestFigure6Embedding reproduces Figure 6: an application registers its
// own command procedures; they are indistinguishable from built-ins and
// can be created and deleted at any time.
func TestFigure6Embedding(t *testing.T) {
	in := New()
	calls := 0
	in.Register("myapp", func(in *Interp, args []string) (string, error) {
		calls++
		return FormatList(args[1:]), nil
	})
	expect(t, in, "myapp alpha beta", "alpha beta")
	if calls != 1 {
		t.Fatalf("command procedure called %d times, want 1", calls)
	}
	// Application commands compose with built-ins.
	expect(t, in, "set v [myapp x]", "x")
	// Commands may be deleted at any time while the application runs.
	if !in.Unregister("myapp") {
		t.Fatal("Unregister failed")
	}
	evalErr(t, in, "myapp again", "invalid command name")
}

func TestSetAndVariables(t *testing.T) {
	in := New()
	expect(t, in, "set a 5", "5")
	expect(t, in, "set a", "5")
	expect(t, in, "set b $a$a", "55")
	expect(t, in, "set name a; set $name 9; set a", "9")
	evalErr(t, in, "set nosuch", "no such variable")
	evalOK(t, in, "unset a")
	evalErr(t, in, "set a", "no such variable")
	evalErr(t, in, "unset a", "no such variable")
}

func TestBracedVariableName(t *testing.T) {
	in := New()
	evalOK(t, in, "set foo bar")
	expect(t, in, `set x ${foo}baz`, "barbaz")
}

func TestArrayVariables(t *testing.T) {
	in := New()
	expect(t, in, "set a(one) 1", "1")
	expect(t, in, "set a(two) 2", "2")
	expect(t, in, "set a(one)", "1")
	expect(t, in, "set i one; set a($i)", "1")
	expect(t, in, "array size a", "2")
	expect(t, in, "array names a", "one two")
	expect(t, in, "array exists a", "1")
	expect(t, in, "array exists nope", "0")
	expect(t, in, "array get a", "one 1 two 2")
	evalOK(t, in, "array set b {x 10 y 20}")
	expect(t, in, "set b(y)", "20")
	evalErr(t, in, "set a", "variable is array")
	evalErr(t, in, "set a(three)", "no such element in array")
	evalOK(t, in, "unset a(one)")
	expect(t, in, "array size a", "1")
}

func TestIncrAppend(t *testing.T) {
	in := New()
	evalOK(t, in, "set i 10")
	expect(t, in, "incr i", "11")
	expect(t, in, "incr i 5", "16")
	expect(t, in, "incr i -20", "-4")
	evalErr(t, in, "incr nosuch", "no such variable")
	evalOK(t, in, "set s abc")
	expect(t, in, "append s def ghi", "abcdefghi")
	expect(t, in, "append fresh xyz", "xyz")
}

func TestIfCommand(t *testing.T) {
	in := New()
	expect(t, in, "if 1 {set x yes} else {set x no}", "yes")
	expect(t, in, "if 0 {set x yes} else {set x no}", "no")
	expect(t, in, "if 0 {set x a} elseif 1 {set x b} else {set x c}", "b")
	expect(t, in, "if {2 > 1} then {set x then}", "then")
	expect(t, in, "if 0 {set x a}", "")
	// Old-style implicit else.
	expect(t, in, "if 0 {set x a} {set x implicit}", "implicit")
}

func TestWhileForLoops(t *testing.T) {
	in := New()
	expect(t, in, `
		set total 0
		set i 0
		while {$i < 10} {incr total $i; incr i}
		set total
	`, "45")
	expect(t, in, `
		set total 0
		for {set i 0} {$i < 5} {incr i} {incr total $i}
		set total
	`, "10")
	// break and continue.
	expect(t, in, `
		set n 0
		for {set i 0} {$i < 100} {incr i} {
			if {$i == 5} break
			incr n
		}
		set n
	`, "5")
	expect(t, in, `
		set n 0
		for {set i 0} {$i < 10} {incr i} {
			if {$i % 2} continue
			incr n
		}
		set n
	`, "5")
}

func TestForeach(t *testing.T) {
	in := New()
	expect(t, in, `
		set out {}
		foreach x {a b c} {lappend out <$x>}
		set out
	`, "<a> <b> <c>")
	// Multiple loop variables.
	expect(t, in, `
		set out {}
		foreach {k v} {a 1 b 2} {lappend out $k=$v}
		set out
	`, "a=1 b=2")
	// break inside foreach.
	expect(t, in, `
		set out {}
		foreach x {1 2 3 4} {
			if {$x == 3} break
			lappend out $x
		}
		set out
	`, "1 2")
}

func TestSwitchAndCase(t *testing.T) {
	in := New()
	expect(t, in, `switch abc {a {set r one} abc {set r two} default {set r three}}`, "two")
	expect(t, in, `switch -glob ab* {a* {set r glob} default {set r no}}`, "glob")
	expect(t, in, `switch -exact xyz {x* {set r glob} default {set r dflt}}`, "dflt")
	expect(t, in, `switch zzz {a {set r 1} default {set r fallback}}`, "fallback")
	// Fall-through bodies.
	expect(t, in, `switch b {a - b {set r shared} default {set r no}}`, "shared")
	// Historic case command.
	expect(t, in, `case green in {red {set r stop} {green blue} {set r go} default {set r unknown}}`, "go")
}

func TestProcBasics(t *testing.T) {
	in := New()
	evalOK(t, in, "proc add {a b} {expr $a + $b}")
	expect(t, in, "add 2 3", "5")
	evalOK(t, in, "proc greet {name {greeting Hello}} {return \"$greeting, $name\"}")
	expect(t, in, "greet World", "Hello, World")
	expect(t, in, "greet World Howdy", "Howdy, World")
	evalErr(t, in, "greet", "no value given for parameter")
	evalErr(t, in, "add 1 2 3", "too many arguments")
	// args varargs.
	evalOK(t, in, "proc count {first args} {llength $args}")
	expect(t, in, "count a b c d", "3")
	expect(t, in, "count a", "0")
}

func TestProcScoping(t *testing.T) {
	in := New()
	evalOK(t, in, "set g 100")
	// Locals don't leak; globals need the global command.
	evalOK(t, in, "proc f {} {set g 1; return $g}")
	expect(t, in, "f", "1")
	expect(t, in, "set g", "100")
	evalOK(t, in, "proc h {} {global g; incr g}")
	expect(t, in, "h", "101")
	expect(t, in, "set g", "101")
}

func TestUpvarUplevel(t *testing.T) {
	in := New()
	evalOK(t, in, `proc incrvar {name} {upvar $name v; incr v}`)
	evalOK(t, in, "set counter 7")
	expect(t, in, "incrvar counter", "8")
	expect(t, in, "set counter", "8")
	// uplevel evaluates in the caller's frame.
	evalOK(t, in, `proc setcaller {} {uplevel {set fromUplevel 42}}`)
	evalOK(t, in, `proc outer {} {setcaller; return $fromUplevel}`)
	expect(t, in, "outer", "42")
	// uplevel #0 reaches the global frame.
	evalOK(t, in, `proc setg {} {uplevel #0 {set gv 5}}`)
	evalOK(t, in, "setg")
	expect(t, in, "set gv", "5")
}

func TestReturnCodes(t *testing.T) {
	in := New()
	evalOK(t, in, "proc early {} {return hi; set never reached}")
	expect(t, in, "early", "hi")
	// return -code error.
	evalOK(t, in, "proc boom {} {return -code error kapow}")
	evalErr(t, in, "boom", "kapow")
	// break at top level is an error.
	_, err := in.Eval("break")
	te, ok := err.(*Error)
	if !ok || te.Code != BreakStatus {
		t.Fatalf("break at top level: got %v", err)
	}
}

func TestCatch(t *testing.T) {
	in := New()
	expect(t, in, "catch {set x 1}", "0")
	expect(t, in, "catch {nosuchcommand} msg", "1")
	expect(t, in, "set msg", `invalid command name "nosuchcommand"`)
	expect(t, in, "catch {error custom} m; set m", "custom")
	// catch captures break/continue codes too.
	expect(t, in, "catch {break}", "3")
	expect(t, in, "catch {continue}", "4")
	evalOK(t, in, "proc r {} {catch {return val} out; set out}")
	expect(t, in, "r", "val")
}

func TestErrorCommand(t *testing.T) {
	in := New()
	_, err := in.Eval("error {something failed}")
	if err == nil || err.Error() != "something failed" {
		t.Fatalf("error command: %v", err)
	}
}

func TestEvalCommand(t *testing.T) {
	in := New()
	expect(t, in, "eval set x 5", "5")
	expect(t, in, "eval {set y 6}", "6")
	evalOK(t, in, "set cmd {set z 7}")
	expect(t, in, "eval $cmd", "7")
	// The paper: "new Tcl programs may be synthesized and executed
	// on-the-fly".
	expect(t, in, `eval [list set w 8]`, "8")
}

func TestNestedSubstitution(t *testing.T) {
	in := New()
	evalOK(t, in, "set a 1")
	evalOK(t, in, "set b 2")
	expect(t, in, `set c [expr [set a]+[set b]]`, "3")
	expect(t, in, `set d "x[set a]y[set b]z"`, "x1y2z")
}

func TestComments(t *testing.T) {
	in := New()
	expect(t, in, "# a comment\nset x 1", "1")
	expect(t, in, "set y 2 ;# trailing words are args, not comments\nset y", "2")
	expect(t, in, "# comment with continuation \\\nset ignored 1\nset z 3", "3")
}

func TestLineContinuation(t *testing.T) {
	in := New()
	expect(t, in, "set x \\\n  5", "5")
	expect(t, in, "set msg {a \\\n   b}", "a  b")
}

func TestStringResultOfEverything(t *testing.T) {
	// "There is only one official data type in Tcl: strings."
	in := New()
	expect(t, in, "expr 2+2", "4")
	expect(t, in, `string length [expr 10*10]`, "3")
	expect(t, in, "llength [list 1 2 3]", "3")
}

func TestRename(t *testing.T) {
	in := New()
	evalOK(t, in, "proc orig {} {return from-orig}")
	evalOK(t, in, "rename orig renamed")
	expect(t, in, "renamed", "from-orig")
	evalErr(t, in, "orig", "invalid command name")
	// rename to "" deletes.
	evalOK(t, in, `rename renamed ""`)
	evalErr(t, in, "renamed", "invalid command name")
	evalErr(t, in, "rename nosuch other", "doesn't exist")
}

func TestInfoIntrospection(t *testing.T) {
	in := New()
	evalOK(t, in, "proc myproc {a {b 5} args} {return $a$b$args}")
	expect(t, in, "info args myproc", "a b args")
	expect(t, in, "info body myproc", "return $a$b$args")
	expect(t, in, "info default myproc b dv; set dv", "5")
	expect(t, in, "info exists nosuch", "0")
	evalOK(t, in, "set present 1")
	expect(t, in, "info exists present", "1")
	if got := evalOK(t, in, "info procs my*"); got != "myproc" {
		t.Fatalf("info procs = %q", got)
	}
	if got := evalOK(t, in, "info commands set"); got != "set" {
		t.Fatalf("info commands set = %q", got)
	}
	expect(t, in, "info level", "0")
	evalOK(t, in, "proc lvl {} {info level}")
	expect(t, in, "lvl", "1")
}

func TestVariableTraces(t *testing.T) {
	in := New()
	var log []string
	in.TraceVar("watched", "rw", func(in *Interp, name, index, op string) {
		log = append(log, op+":"+name)
	})
	evalOK(t, in, "set watched 1")
	evalOK(t, in, "set watched 2")
	evalOK(t, in, "set x $watched")
	want := []string{"w:watched", "w:watched", "r:watched"}
	if strings.Join(log, ",") != strings.Join(want, ",") {
		t.Fatalf("trace log = %v, want %v", log, want)
	}
}

func TestTclLevelTraces(t *testing.T) {
	in := New()
	evalOK(t, in, "set fired {}")
	evalOK(t, in, `trace variable tv w {lappend fired}`)
	evalOK(t, in, "set tv 1")
	got := evalOK(t, in, "set fired")
	if !strings.Contains(got, "tv") || !strings.Contains(got, "w") {
		t.Fatalf("Tcl trace fired = %q", got)
	}
}

// TestTraceVdeleteRemovesOneTrace: trace vdelete removes one trace set
// with the same operations and command, as Tcl does; the other such
// trace, a trace of other operations and a trace Go code set stay.
func TestTraceVdeleteRemovesOneTrace(t *testing.T) {
	in := New()
	goFired := 0
	in.TraceVar("v", "w", func(*Interp, string, string, string) { goFired++ })
	evalOK(t, in, "trace variable v w {lappend fired}; trace variable v w {lappend fired}; trace variable v r {lappend read}")
	evalOK(t, in, "trace vdelete v w {lappend other}; trace vdelete v wu {lappend fired}")
	expect(t, in, "trace vinfo v", "4")
	evalOK(t, in, "trace vdelete v w {lappend fired}")
	expect(t, in, "trace vinfo v", "3")
	evalOK(t, in, "set fired {}; set v 1")
	expect(t, in, "set fired", "v {} w")
	if goFired != 1 {
		t.Fatalf("the Go trace fired %d times, want 1", goFired)
	}
	evalOK(t, in, "trace vdelete v rr {lappend read}")
	expect(t, in, "trace vinfo v", "2")
	if _, err := in.Eval("trace vdelete v x {lappend fired}"); err == nil {
		t.Fatal("trace vdelete accepted the operations x")
	}
}

// TestUntraceVar: a trace Go code set stops firing once UntraceVar
// removes it; removing it twice, or after its variable was unset, does
// nothing.
func TestUntraceVar(t *testing.T) {
	in := New()
	fired := 0
	tr := in.TraceGlobal("g", "w", func(*Interp, string, string, string) { fired++ })
	other := in.TraceVar("g", "w", func(*Interp, string, string, string) { fired += 10 })
	evalOK(t, in, "set g 1")
	in.UntraceVar(tr)
	in.UntraceVar(tr)
	evalOK(t, in, "set g 2")
	if fired != 21 {
		t.Fatalf("fired = %d, want 21: both traces once, then only the one left", fired)
	}
	expect(t, in, "trace vinfo g", "1")
	evalOK(t, in, "unset g; set g 3")
	in.UntraceVar(other)
	expect(t, in, "trace vinfo g", "0")
}

func TestDeletedInterp(t *testing.T) {
	in := New()
	in.Delete()
	if _, err := in.Eval("set a 1"); err == nil {
		t.Fatal("Eval on deleted interp should fail")
	}
	if !in.Deleted() {
		t.Fatal("Deleted() should be true")
	}
}

func TestRecursionLimit(t *testing.T) {
	in := New()
	evalOK(t, in, "proc inf {} {inf}")
	evalErr(t, in, "inf", "too many nested calls")
}

func TestSubstCommand(t *testing.T) {
	in := New()
	evalOK(t, in, "set v 42")
	expect(t, in, `subst {v is $v and sum is [expr 1+2]}`, "v is 42 and sum is 3")
}

func TestTimeCommand(t *testing.T) {
	in := New()
	got := evalOK(t, in, "time {set x 1} 10")
	if !strings.HasSuffix(got, "microseconds per iteration") {
		t.Fatalf("time result = %q", got)
	}
}

func TestErrorInfoPropagation(t *testing.T) {
	in := New()
	_, err := in.Eval("set")
	te, ok := err.(*Error)
	if !ok {
		t.Fatalf("expected *Error, got %T", err)
	}
	if te.Code != ErrorStatus {
		t.Fatalf("code = %v", te.Code)
	}
	if !strings.Contains(te.Msg, "wrong # args") {
		t.Fatalf("msg = %q", te.Msg)
	}
}

func TestSemicolonsAndNewlines(t *testing.T) {
	in := New()
	expect(t, in, "set a 1; set b 2; expr $a+$b", "3")
	expect(t, in, "set a 4\nset b 5\nexpr $a+$b", "9")
}

func TestDollarEdgeCases(t *testing.T) {
	in := New()
	// A '$' not followed by a variable name is literal.
	expect(t, in, `set x a$`, "a$")
	evalErr(t, in, `set y $nosuchvar`, "no such variable")
}

func TestWrongArgsMessages(t *testing.T) {
	in := New()
	evalErr(t, in, "incr", "wrong # args")
	evalErr(t, in, "proc x", "wrong # args")
	evalErr(t, in, "while 1", "wrong # args")
	evalErr(t, in, "foreach a", "wrong # args")
}

// TestUplevelProcCallDoesNotClobberFrames: calling procedures from inside
// an uplevel script (or a trace fired by SetGlobal) must not corrupt the
// frames set aside during the scope switch.
func TestUplevelProcCallDoesNotClobberFrames(t *testing.T) {
	in := New()
	evalOK(t, in, `proc helper {} {set local inHelper; return done}`)
	evalOK(t, in, `proc middle {} {
		set mine before
		uplevel #0 {helper; helper}
		set mine
	}`)
	evalOK(t, in, `proc outer {} {
		set ours outerValue
		set got [middle]
		if {$got != "before"} {error "middle lost its frame: $got"}
		set ours
	}`)
	expect(t, in, "outer", "outerValue")
}

// TestTraceCallingProcDuringSetGlobal exercises the same hazard through
// variable traces.
func TestTraceCallingProcDuringSetGlobal(t *testing.T) {
	in := New()
	evalOK(t, in, `proc noisy {} {set x local; return ok}`)
	fired := 0
	in.TraceVar("watched", "w", func(in *Interp, _, _, _ string) {
		fired++
		if _, err := in.Eval("noisy"); err != nil {
			t.Errorf("trace proc call: %v", err)
		}
	})
	evalOK(t, in, `proc writer {} {
		set frameLocal precious
		upvar #0 watched w
		set w 1
		set frameLocal
	}`)
	expect(t, in, "writer", "precious")
	if fired == 0 {
		t.Fatal("trace never fired")
	}
}
