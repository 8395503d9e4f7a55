package tcl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSourceCommand(t *testing.T) {
	in := New()
	dir := t.TempDir()
	file := filepath.Join(dir, "lib.tcl")
	if err := os.WriteFile(file, []byte("proc fromfile {} {return sourced}\nset loaded 1"), 0o644); err != nil {
		t.Fatal(err)
	}
	// source returns the script's last result.
	expect(t, in, "source "+file, "1")
	expect(t, in, "fromfile", "sourced")
	evalErr(t, in, "source /nonexistent/file.tcl", "couldn't read")
}

// TestReturnEndsScript: a return at the outermost level ends the
// script with its value, as Tcl_Eval turns a return at level 0 into the
// return's outcome; with a -code, the outcome is an *Error of that code.
func TestReturnEndsScript(t *testing.T) {
	in := New()
	expect(t, in, "set a 1; return foo; set a 2", "foo")
	expect(t, in, "set a", "1")
	expect(t, in, "return", "")
	for script, code := range map[string]Status{
		"return -code error oops":  ErrorStatus,
		"return -code break oops":  BreakStatus,
		"return -code return oops": ReturnStatus,
	} {
		_, err := in.GlobalEval(script)
		if e, ok := err.(*Error); !ok || e.Code != code || e.Msg != "oops" {
			t.Fatalf("GlobalEval(%q) = %#v, want an *Error of code %v", script, err, code)
		}
	}
}

// TestSourceReturn: a return in a sourced file ends the file with its
// value, as Tcl_EvalFile does; the procedure that sourced it goes on.
func TestSourceReturn(t *testing.T) {
	in := New()
	file := filepath.Join(t.TempDir(), "r.tcl")
	if err := os.WriteFile(file, []byte("set x 1\nreturn early\nset x 2"), 0o644); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "source "+file, "early")
	expect(t, in, "set x", "1")
	expect(t, in, "proc p {} {source "+file+"; return after}; p", "after")
}

func TestFileCommand(t *testing.T) {
	in := New()
	dir := t.TempDir()
	file := filepath.Join(dir, "data.txt")
	if err := os.WriteFile(file, []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "file exists "+file, "1")
	expect(t, in, "file exists "+file+".nope", "0")
	expect(t, in, "file isfile "+file, "1")
	expect(t, in, "file isdirectory "+file, "0")
	expect(t, in, "file isdirectory "+dir, "1")
	expect(t, in, "file size "+file, "5")
	expect(t, in, "file tail "+file, "data.txt")
	expect(t, in, "file dirname "+file, dir)
	expect(t, in, "file extension "+file, ".txt")
	expect(t, in, "file rootname data.txt", "data")
	expect(t, in, "file type "+file, "file")
	expect(t, in, "file type "+dir, "directory")
	// The paper's Figure 9 argument order: file $name option.
	expect(t, in, "file "+file+" isfile", "1")
	expect(t, in, "file "+dir+" isdirectory", "1")
	// file mkdir / delete.
	sub := filepath.Join(dir, "a", "b")
	evalOK(t, in, "file mkdir "+sub)
	expect(t, in, "file isdirectory "+sub, "1")
	evalOK(t, in, "file delete "+sub)
	expect(t, in, "file exists "+sub, "0")
	// file join / split.
	expect(t, in, "file join a b c", "a/b/c")
	expect(t, in, "file split /x/y", "/ x y")
}

func TestGlobCommand(t *testing.T) {
	in := New()
	dir := t.TempDir()
	for _, f := range []string{"a.tcl", "b.tcl", "c.txt"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := evalOK(t, in, "glob "+dir+"/*.tcl")
	if !strings.Contains(got, "a.tcl") || !strings.Contains(got, "b.tcl") || strings.Contains(got, "c.txt") {
		t.Fatalf("glob = %q", got)
	}
	evalErr(t, in, "glob "+dir+"/*.nope", "no files matched")
	expect(t, in, "glob -nocomplain "+dir+"/*.nope", "")
}

func TestExecCommand(t *testing.T) {
	in := New()
	expect(t, in, "exec echo hello world", "hello world")
	// Output trimming of trailing newline only.
	expect(t, in, `exec printf a\nb\n`, "a\nb")
	// Command failure propagates stderr/exit.
	evalErr(t, in, "exec false", "")
	evalErr(t, in, "exec /no/such/binary", "couldn't execute")
	// Background execution returns a pid.
	got := evalOK(t, in, "exec sleep 0.01 &")
	if got == "" {
		t.Fatal("background exec returned no pid")
	}
	// Figure 9's usage: exec ls -a produces . and ..
	dir := t.TempDir()
	got = evalOK(t, in, "exec ls -a "+dir)
	if !strings.Contains(got, ".") {
		t.Fatalf("ls -a output %q", got)
	}
}

func TestPwdCdPid(t *testing.T) {
	in := New()
	orig, _ := os.Getwd()
	defer os.Chdir(orig)
	dir := t.TempDir()
	evalOK(t, in, "cd "+dir)
	got := evalOK(t, in, "pwd")
	// TempDir may be a symlink (macOS); compare resolved paths.
	want, _ := filepath.EvalSymlinks(dir)
	gotR, _ := filepath.EvalSymlinks(got)
	if gotR != want {
		t.Fatalf("pwd = %q, want %q", gotR, want)
	}
	if pid := evalOK(t, in, "pid"); pid != evalOK(t, in, "pid") {
		t.Fatal("pid should be stable")
	}
	evalErr(t, in, "cd /no/such/dir", "couldn't change")
}

func TestExitHandler(t *testing.T) {
	in := New()
	code := -1
	in.ExitHandler = func(c int) { code = c }
	evalOK(t, in, "exit 3")
	if code != 3 {
		t.Fatalf("exit handler got %d", code)
	}
	evalOK(t, in, "exit")
	if code != 0 {
		t.Fatalf("default exit code = %d", code)
	}
	evalErr(t, in, "exit notanumber", "expected integer")
}

func TestPutsVariants(t *testing.T) {
	in := New()
	var out strings.Builder
	in.Out = &out
	evalOK(t, in, `puts hello`)
	evalOK(t, in, `puts -nonewline world`)
	evalOK(t, in, `puts stdout channeled`)
	if out.String() != "hello\nworldchanneled\n" {
		t.Fatalf("puts output = %q", out.String())
	}
}

func TestExecPipelinesAndRedirection(t *testing.T) {
	in := New()
	dir := t.TempDir()
	// Pipeline.
	expect(t, in, `exec printf "b\na\nc\n" | sort`, "a\nb\nc")
	// Three stages.
	expect(t, in, `exec printf "x\ny\nx\n" | sort | uniq`, "x\ny")
	// Output redirection.
	out := dir + "/out.txt"
	evalOK(t, in, "exec echo written > "+out)
	expect(t, in, "exec cat "+out, "written")
	// Append redirection.
	evalOK(t, in, "exec echo more >> "+out)
	expect(t, in, "exec cat "+out, "written\nmore")
	// Input redirection.
	expect(t, in, "exec cat < "+out, "written\nmore")
	// Input redirection into a pipeline (single quotes are not special
	// in Tcl, so trim the wc padding with string trim instead).
	expect(t, in, "string trim [exec cat < "+out+" | wc -l]", "2")
	// Errors.
	evalErr(t, in, "exec cat < /no/such/input", "couldn't read")
	evalErr(t, in, "exec |", "illegal use")
	evalErr(t, in, "exec echo x >", "last word")
}
