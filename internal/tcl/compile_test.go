package tcl

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestSyntaxErrorRunsPrefix: the commands and substitutions before a
// syntax error run, and the error is raised when evaluation reaches it,
// on every evaluation of the same (cached) text.
func TestSyntaxErrorRunsPrefix(t *testing.T) {
	in := New()
	for i := 1; i <= 3; i++ {
		evalOK(t, in, "set a 0")
		_, err := in.Eval("set a 1; set b {")
		if err == nil || err.Error() != "missing close-brace" {
			t.Fatalf("run %d: err = %v", i, err)
		}
		if got := evalOK(t, in, "set a"); got != "1" {
			t.Fatalf("run %d: a = %q, want 1", i, got)
		}
		// A substitution earlier in the failing command runs too.
		if _, err := in.Eval("set b [incr a] {x"); err == nil {
			t.Fatalf("run %d: unterminated brace accepted", i)
		}
		if got := evalOK(t, in, "set a"); got != "2" {
			t.Fatalf("run %d: a = %q after failed command, want 2", i, got)
		}
		if in.VarExists("b") {
			t.Fatalf("run %d: the failing command ran", i)
		}
	}
}

// TestCachedErrorInfoStable: a cached script that fails again and again
// reports the same errorInfo each time, because every failure raises a
// fresh *Error for invoke and callProc to annotate.
func TestCachedErrorInfoStable(t *testing.T) {
	in := New()
	evalOK(t, in, "proc boom {} {error boom}; proc bad {} {set x {}; set y {}}; proc badexpr {} {expr {1 +}}")
	for _, script := range []string{"boom", "set x {", "bad; set z {", "badexpr", "expr {(}", "set v [expr {1 +}]"} {
		var first string
		for i := 0; i < 4; i++ {
			_, err := in.Eval(script)
			te, ok := err.(*Error)
			if !ok {
				t.Fatalf("%q: err = %#v", script, err)
			}
			if i == 0 {
				first = te.Info
			} else if te.Info != first {
				t.Fatalf("%q: errorInfo changed on run %d:\n%q\nvs\n%q", script, i+1, te.Info, first)
			}
		}
	}
}

// TestArgsDoNotAliasCache: a command that scribbles over its argument
// slice does not change what the next evaluation of the same cached
// script passes.
func TestArgsDoNotAliasCache(t *testing.T) {
	in := New()
	in.Register("scribble", func(in *Interp, args []string) (string, error) {
		got := strings.Join(args, " ")
		for i := range args {
			args[i] = "clobbered"
		}
		return got, nil
	})
	evalOK(t, in, "proc p {} {scribble b [set x y]}; set v 12")
	for i := 0; i < 5; i++ {
		if got := evalOK(t, in, "scribble a {b c} $v"); got != "scribble a b c 12" {
			t.Fatalf("run %d: %q", i, got)
		}
		if got := evalOK(t, in, "p"); got != "scribble b y" {
			t.Fatalf("proc run %d: %q", i, got)
		}
	}
}

// TestBracketChecks: every [...] counts as a nesting level and checks
// for a deleted interpreter, whether its script is cached or not.
func TestBracketChecks(t *testing.T) {
	in := New()
	evalOK(t, in, "proc deep {n} {return [deep [expr {$n + 1}]]}")
	for i := 0; i < 3; i++ {
		evalErr(t, in, "deep 0", "too many nested calls")
	}
	deep := strings.Repeat("[set x ", 1200) + "1" + strings.Repeat("]", 1200)
	for i := 0; i < 3; i++ {
		evalErr(t, in, "set y "+deep, "too many nested calls")
	}
	in.Register("kill", func(in *Interp, args []string) (string, error) {
		in.Delete()
		return "", nil
	})
	in.SetVar("x", "0")
	_, err := in.Eval("kill; set x [set y 1]")
	if err == nil || !strings.Contains(err.Error(), "deleted interpreter") {
		t.Fatalf("bracket after Delete: %v", err)
	}
	if in.VarExists("y") {
		t.Fatal("a bracket ran in a deleted interpreter")
	}
}

// TestExprSyntaxErrorFirst: an expression with a syntax error is
// rejected before any of its operands is evaluated (as in Tcl 8).
func TestExprSyntaxErrorFirst(t *testing.T) {
	in := New()
	evalOK(t, in, "set a 0")
	for _, e := range []string{"[incr a] +", "[incr a] + nosuchfunc(1)", "[incr a] + (1", "[incr a] 1"} {
		for i := 0; i < 3; i++ {
			if _, err := in.EvalExpr(e); err == nil {
				t.Fatalf("%q: no error", e)
			}
		}
	}
	if got := evalOK(t, in, "set a"); got != "0" {
		t.Fatalf("operands ran before the syntax error: a = %q", got)
	}
}

// TestCacheBounded: one-shot scripts never enter the cache, and scripts
// that recur never grow it past its bound.
func TestCacheBounded(t *testing.T) {
	in := New()
	evalOK(t, in, "set a -1")
	before := len(in.cache)
	for i := 0; i < 100000; i++ {
		evalOK(t, in, fmt.Sprintf("set a %d", i))
	}
	if len(in.cache) != before {
		t.Fatalf("one-shot scripts grew the cache from %d to %d entries", before, len(in.cache))
	}
	for i := 0; i < 10000; i++ {
		script := fmt.Sprintf("incr a %d", i)
		for j := 0; j < 2; j++ {
			evalOK(t, in, script)
			if len(in.cache) > cacheMax {
				t.Fatalf("cache holds %d entries, bound %d", len(in.cache), cacheMax)
			}
		}
		if _, ok := in.cache[script]; !ok {
			t.Fatalf("%q was not admitted on its second evaluation", script)
		}
	}
}

// TestComputeCompiledSize measures the memory the compiled forms of the
// benchmark's compute kernel hold: the drop in the live heap when every
// compiled form is discarded.
func TestComputeCompiledSize(t *testing.T) {
	src, err := os.ReadFile("../../cmd/tkbench/compute.tcl")
	if err != nil {
		t.Skip(err)
	}
	in := New()
	evalOK(t, in, string(src))
	for i := 0; i < 5; i++ {
		evalOK(t, in, fmt.Sprintf("checksum %d 150 w%dord", 1000+i, i))
	}
	// Two collections per reading: the first moves sync.Pool contents to
	// their victim caches, the second frees them.
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	in.cache, in.scratch = nil, nil
	for _, c := range in.cmds {
		if c.proc != nil {
			c.proc.code = nil
		}
	}
	size := before - heap()
	t.Logf("compute.tcl compiled code: %d bytes", size)
	if size > 8<<10 {
		t.Fatalf("compute.tcl's compiled code holds %d bytes, budget 8 KiB", size)
	}
	runtime.KeepAlive(in)
}
