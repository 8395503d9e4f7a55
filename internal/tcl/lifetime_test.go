package tcl

import (
	"slices"
	"strings"
	"testing"
)

// A command's words live on the interpreter's word stack for the call,
// and a procedure's frame comes from a free list and goes back to it.
// These tests pin what that reuse must not change.

// checkIdle fails unless in is back at top level: no words on the stack,
// none of them left uncleared, and only the global frame.
func checkIdle(t *testing.T, in *Interp) {
	t.Helper()
	if len(in.argv) != 0 || len(in.frames) != 1 {
		t.Fatalf("after Eval: %d words on the stack, %d frames; want 0 and 1", len(in.argv), len(in.frames))
	}
	for i, w := range in.argv[:cap(in.argv)] {
		if w != "" {
			t.Fatalf("word stack slot %d still holds %q", i, w)
		}
	}
}

// TestArgsSurviveWordStackGrowth: a nested evaluation that pushes enough
// words to reallocate the stack leaves the running command's own words
// as they were.
func TestArgsSurviveWordStackGrowth(t *testing.T) {
	in := New()
	wide := "list " + strings.Repeat("w ", 2000)
	deep := strings.Repeat("[list a b c ", 200) + strings.Repeat("]", 200)
	grew := false
	in.Register("outer", func(in *Interp, args []string) (string, error) {
		want := slices.Clone(args)
		before := cap(in.argv)
		if _, err := in.Eval(wide + deep); err != nil {
			return "", err
		}
		grew = grew || cap(in.argv) != before
		if !slices.Equal(args, want) {
			t.Errorf("args after the nested evaluation = %q, want %q", args, want)
		}
		return FormatList(args), nil
	})
	evalOK(t, in, "proc p {} {set v [outer x {y z} [set q 1]]; set v}")
	expect(t, in, "set r [list [p] [outer a]]", "{outer x {y z} 1} {outer a}")
	if !grew {
		t.Fatal("the nested evaluations never reallocated the word stack")
	}
	checkIdle(t, in)
}

// TestWordStackEmptyAfterErrors: a word that fails pops the words before
// it, however often it happens.
func TestWordStackEmptyAfterErrors(t *testing.T) {
	in := New()
	for range 10000 {
		if _, err := in.Eval("catch {list a [error x] b}"); err != nil {
			t.Fatal(err)
		}
		if len(in.argv) != 0 {
			t.Fatalf("%d words left on the stack", len(in.argv))
		}
	}
	checkIdle(t, in)
}

// TestKeptArgsReadEmpty: a command that breaks the contract and keeps
// its args finds them cleared once the script has run.
func TestKeptArgsReadEmpty(t *testing.T) {
	in := New()
	var kept []string
	in.Register("keep", func(_ *Interp, args []string) (string, error) {
		kept = args
		return "", nil
	})
	for _, script := range []string{"keep a b", "keep a b; set other 1"} {
		evalOK(t, in, script)
		if !slices.Equal(kept, []string{"", "", ""}) {
			t.Fatalf("%q: kept args = %q, want three empty words", script, kept)
		}
	}
}

// TestReusedFrameHasOnlyItsOwnLocals: a frame taken from the free list
// starts empty.
func TestReusedFrameHasOnlyItsOwnLocals(t *testing.T) {
	in := New()
	evalOK(t, in, "proc a {p} {set x 1; set y 2; array set arr {k v}}")
	evalOK(t, in, "proc b {z} {set w 3; info locals}")
	expect(t, in, "a 0; lsort [b 1]", "w z")
	expect(t, in, "a 0; b 1; a 0; lsort [b 1]", "w z")
	checkIdle(t, in)
}

// TestUpvarIntoCallerSurvivesReturn: a variable a procedure sets through
// upvar stays set in its caller once the procedure's frame is reused.
func TestUpvarIntoCallerSurvivesReturn(t *testing.T) {
	in := New()
	evalOK(t, in, "proc setter {name value} {upvar $name v; set v $value}")
	evalOK(t, in, "proc noise {} {set v clobbered; set name x}")
	evalOK(t, in, "proc caller {} {setter r 42; noise; setter s 7; noise; list $r $s}")
	expect(t, in, "caller", "42 7")
	expect(t, in, "setter g hello; noise; set g", "hello")
	checkIdle(t, in)
}

// TestUplevelGlobalLeavesOuterFrames: a procedure called through
// uplevel #0 runs while the callers' frames are put aside, and they are
// the same frames, with the same variables, afterwards.
func TestUplevelGlobalLeavesOuterFrames(t *testing.T) {
	in := New()
	var before []*frame
	in.Register("snap", func(in *Interp, _ []string) (string, error) {
		before = slices.Clone(in.frames)
		return "", nil
	})
	in.Register("same", func(in *Interp, _ []string) (string, error) {
		if !slices.Equal(in.frames, before) {
			t.Errorf("frames after uplevel = %v, want %v", in.frames, before)
		}
		return "", nil
	})
	evalOK(t, in, "proc inner {} {set q 1; set mine inner; info level}")
	evalOK(t, in, "proc middle {} {set mine 7; snap; set lvl [uplevel #0 {inner; inner}]; same; list $lvl $mine [lsort [info locals]]}")
	evalOK(t, in, "proc outer {} {set o 1; set r [middle]; lappend r [info locals]}")
	expect(t, in, "outer", "1 7 {lvl mine} {o r}")
	checkIdle(t, in)
}

// TestFreeFramesBounded: deep recursion returns many frames at once, and
// the free list keeps no more than its bound of them.
func TestFreeFramesBounded(t *testing.T) {
	in := New()
	evalOK(t, in, "proc r {n} {if {$n == 0} {return [info level]}; r [expr {$n - 1}]}")
	expect(t, in, "r 500", "501")
	if n := len(in.freeFrames); n != maxFreeFrames {
		t.Fatalf("after 500-deep recursion the free list holds %d frames, want %d", n, maxFreeFrames)
	}
	for range 20 {
		expect(t, in, "r 1", "2")
	}
	if n := len(in.freeFrames); n > maxFreeFrames {
		t.Fatalf("the free list holds %d frames, bound %d", n, maxFreeFrames)
	}
	// A frame whose map grew past maxFrameVars is dropped.
	evalOK(t, in, "proc big {} {for {set i 0} {$i <= 40} {incr i} {set v$i $i}}")
	in.freeFrames = nil
	evalOK(t, in, "big")
	if len(in.freeFrames) != 0 {
		t.Fatal("a frame with 42 variables went back on the free list")
	}
	checkIdle(t, in)
}

// TestEvalAllocs pins the allocations the executor makes: none for a
// command's words, and only a procedure's own variables and results for
// a call.
func TestEvalAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, setup, script string
		max                 float64
	}{
		{"set a 1", "", "set a 1", 0},
		{"for loop of 100", "", "for {set i 0} {$i < 100} {incr i} {set x $i}", 1},
		{"one-argument proc", "proc lcg {x} {return [expr {($x * 1103515245 + 12345) % 2147483648}]}", "lcg 12345", 2},
		{"proc ending in return", "proc r {x} {return $x}", "r 1", 1},
		{"proc at global level", "proc p {x} {set x}", "uplevel #0 {p 1}", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := New()
			evalOK(t, in, tc.setup)
			for range 3 { // compile, admit to the cache, fill the free list
				evalOK(t, in, tc.script)
			}
			if n := testing.AllocsPerRun(100, func() { in.Eval(tc.script) }); n > tc.max {
				t.Fatalf("%q allocated %v times, want at most %v", tc.script, n, tc.max)
			}
		})
	}
}

// TestReturnErrorIsKept: Eval hands the error of a return -code error
// that leaves its script, and EvalExpr that of any return, to its Go
// caller as an error of its own, which a later return does not change,
// whether that Eval is the outermost one or runs inside a script, as a
// binding that `update` runs does.
func TestReturnErrorIsKept(t *testing.T) {
	in := New()
	_, first := in.Eval("return -code error a")
	if _, err := in.Eval("return -code error b"); err == nil || err.Error() != "b" {
		t.Fatalf("second return: %v, want b", err)
	}
	if first == nil || first.Error() != "a" {
		t.Fatalf("first return now reads %v, want a", first)
	}
	_, inExpr := in.EvalExpr("[return e]")
	expect(t, in, "proc r {x} {return $x}; catch {r 7} v; set v", "7")
	if inExpr == nil || inExpr.Error() != "e" {
		t.Fatalf("a return in an expression now reads %v, want e", inExpr)
	}

	var nested error
	in.Register("keep", func(in *Interp, args []string) (string, error) {
		_, nested = in.Eval("return -code error c")
		return "", nil
	})
	expect(t, in, "keep; r 8", "8")
	if nested == nil || nested.Error() != "c" {
		t.Fatalf("nested return now reads %v, want c", nested)
	}
}
