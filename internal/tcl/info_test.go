package tcl

import (
	"strconv"
	"strings"
	"testing"
)

func TestInfoGlobalsAndLocals(t *testing.T) {
	in := New()
	evalOK(t, in, "set gv 1")
	globals := evalOK(t, in, "info globals")
	if !strings.Contains(globals, "gv") || !strings.Contains(globals, "env") {
		t.Fatalf("info globals = %q", globals)
	}
	// Pattern filtering.
	if got := evalOK(t, in, "info globals gv"); got != "gv" {
		t.Fatalf("filtered globals = %q", got)
	}
	// Locals inside a procedure.
	evalOK(t, in, `proc p {a b} {set c 3; return [info locals]}`)
	locals := evalOK(t, in, "p 1 2")
	for _, want := range []string{"a", "b", "c"} {
		if !strings.Contains(locals, want) {
			t.Fatalf("info locals = %q, missing %q", locals, want)
		}
	}
	// At global level, locals is empty.
	if got := evalOK(t, in, "info locals"); got != "" {
		t.Fatalf("global-level locals = %q", got)
	}
	// info vars at global scope sees globals.
	if !strings.Contains(evalOK(t, in, "info vars"), "gv") {
		t.Fatal("info vars")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		OK: "ok", ErrorStatus: "error", ReturnStatus: "return",
		BreakStatus: "break", ContinueStatus: "continue", Status(99): "status-99",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestErrorType(t *testing.T) {
	in := New()
	_, err := in.Eval(`error "boom"`)
	te, ok := err.(*Error)
	if !ok || te.Error() != "boom" || te.Code != ErrorStatus {
		t.Fatalf("error = %#v", err)
	}
	// error with explicit errorInfo.
	_, err = in.Eval(`error msg {custom info}`)
	te = err.(*Error)
	if te.Info != "custom info" {
		t.Fatalf("errorInfo = %q", te.Info)
	}
}

func TestCommandNames(t *testing.T) {
	in := New()
	names := in.CommandNames()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"set", "proc", "expr", "regexp", "string", "foreach"} {
		if !found[want] {
			t.Errorf("CommandNames missing %q", want)
		}
	}
	if found["pack"] {
		t.Error("CommandNames includes Tk's pack command in a bare interpreter")
	}

	// The table tracks Register/Unregister.
	in.Register("frobnicate", func(in *Interp, args []string) (string, error) { return "", nil })
	if !in.HasCommand("frobnicate") {
		t.Fatal("HasCommand false after Register")
	}
	after := in.CommandNames()
	if len(after) != len(names)+1 {
		t.Errorf("CommandNames len = %d after Register, want %d", len(after), len(names)+1)
	}
	if !in.Unregister("frobnicate") {
		t.Error("Unregister returned false for a registered command")
	}
	if in.Unregister("frobnicate") {
		t.Error("Unregister returned true for a missing command")
	}

	// The returned slice is a copy: mutating it must not corrupt the
	// interpreter's table.
	snapshot := in.CommandNames()
	for i := range snapshot {
		snapshot[i] = "clobbered"
	}
	if !in.HasCommand("set") {
		t.Error("mutating the CommandNames result affected the registry")
	}
	if got := len(in.CommandNames()); got != len(names) {
		t.Errorf("CommandNames len = %d after mutation, want %d", got, len(names))
	}
}

func TestUnsetArrayWhole(t *testing.T) {
	in := New()
	evalOK(t, in, "set a(x) 1; set a(y) 2")
	evalOK(t, in, "unset a")
	expect(t, in, "array exists a", "0")
	expect(t, in, "info exists a", "0")
}

func TestInfoExistsArrayForms(t *testing.T) {
	in := New()
	evalOK(t, in, "set arr(k) v")
	expect(t, in, "info exists arr", "1")
	expect(t, in, "info exists arr(k)", "1")
	expect(t, in, "info exists arr(nope)", "0")
}

// TestInfoCmdcount: the count rises by exactly the number of commands
// invoked, nested and procedure-body commands included.
func TestInfoCmdcount(t *testing.T) {
	in := New()
	evalOK(t, in, "proc p {} {set q 1; set r 2}")
	for _, c := range []struct {
		script string
		n      int
	}{
		{"set a 1", 1},
		{"set a 1; set b [set c 2]", 3},
		{"p", 3},
		{"foreach v {1 2 3} {incr a}", 4},
		{"if {[set a] > 0} {set b 1}", 3},
	} {
		for i := 0; i < 3; i++ {
			before, _ := strconv.Atoi(evalOK(t, in, "info cmdcount"))
			evalOK(t, in, c.script)
			after, _ := strconv.Atoi(evalOK(t, in, "info cmdcount"))
			// The second info cmdcount counts itself.
			if got := after - before - 1; got != c.n {
				t.Fatalf("%q ran %d commands by info cmdcount, want %d", c.script, got, c.n)
			}
		}
	}
}
