package main_test

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildOnce compiles wish and xsimd into a shared temp dir.
var (
	buildMu  sync.Mutex
	binDir   string
	buildErr error
)

func binaries(t *testing.T) (wish, xsimd string) {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if binDir == "" && buildErr == nil {
		dir, err := os.MkdirTemp("", "tkbin")
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
			"repro/cmd/wish", "repro/cmd/xsimd", "repro/cmd/tclsh")
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build: %v\n%s", err, out)
		} else {
			binDir = dir
		}
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, "wish"), filepath.Join(binDir, "xsimd")
}

// TestWishRunsScriptFile is the §5 usage: a windowing application written
// entirely as a wish script.
func TestWishRunsScriptFile(t *testing.T) {
	wish, _ := binaries(t)
	dir := t.TempDir()
	script := filepath.Join(dir, "app.tcl")
	if err := os.WriteFile(script, []byte(`
		button .b -text [index $argv 0]
		pack append . .b {top}
		update
		print "text is [lindex [.b configure -text] 4]\n"
		print "argc is $argc\n"
		destroy .
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(wish, "-f", script, "CustomLabel", "extra").CombinedOutput()
	if err != nil {
		t.Fatalf("wish failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "text is CustomLabel") {
		t.Fatalf("output = %q", out)
	}
	if !strings.Contains(string(out), "argc is 2") {
		t.Fatalf("argc: output = %q", out)
	}
}

func TestWishScreenshotCommand(t *testing.T) {
	wish, _ := binaries(t)
	dir := t.TempDir()
	ppm := filepath.Join(dir, "shot.ppm")
	script := filepath.Join(dir, "app.tcl")
	if err := os.WriteFile(script, []byte(fmt.Sprintf(`
		label .l -text "pixels"
		pack append . .l {top}
		update
		screenshot %s .
		destroy .
	`, ppm)), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(wish, "-f", script).CombinedOutput(); err != nil {
		t.Fatalf("wish failed: %v\n%s", err, out)
	}
	data, err := os.ReadFile(ppm)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "P6\n") {
		t.Fatal("screenshot is not a PPM")
	}
}

// TestSendBetweenOSProcesses is the paper's §6 in full: two wish
// processes on one display server (a third process), sending Tcl commands
// to each other over the wire.
func TestSendBetweenOSProcesses(t *testing.T) {
	wish, xsimd := binaries(t)
	dir := t.TempDir()

	// Pick a free port for the display server.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	srv := exec.Command(xsimd, "-addr", addr)
	srvOut, _ := srv.StdoutPipe()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	// Wait until the server announces itself.
	sc := bufio.NewScanner(srvOut)
	if !sc.Scan() {
		t.Fatal("xsimd produced no output")
	}

	// Application A: registers a primitive and serves until told to die.
	scriptA := filepath.Join(dir, "a.tcl")
	if err := os.WriteFile(scriptA, []byte(`
		proc capital {} {return "Sacramento"}
		print "A ready\n"
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	procA := exec.Command(wish, "-name", "appA", "-display", addr, "-f", scriptA)
	aOut, _ := procA.StdoutPipe()
	if err := procA.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		procA.Process.Kill()
		procA.Wait()
	}()
	scA := bufio.NewScanner(aOut)
	deadlineScan(t, scA, "A ready")

	// Application B: sends to A, prints the answer, asks A to exit, then
	// exits itself.
	scriptB := filepath.Join(dir, "b.tcl")
	if err := os.WriteFile(scriptB, []byte(`
		print "interps: [lsort [winfo interps]]\n"
		print "answer: [send appA capital]\n"
		send appA {after 50 {destroy .}}
		destroy .
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	outB, err := exec.Command(wish, "-name", "appB", "-display", addr, "-f", scriptB).CombinedOutput()
	if err != nil {
		t.Fatalf("wish B failed: %v\n%s", err, outB)
	}
	if !strings.Contains(string(outB), "answer: Sacramento") {
		t.Fatalf("B output = %q", outB)
	}
	if !strings.Contains(string(outB), "interps: appA appB") {
		t.Fatalf("registry listing = %q", outB)
	}

	// A exits on its own because of the command B sent it.
	doneA := make(chan error, 1)
	go func() { doneA <- procA.Wait() }()
	select {
	case <-doneA:
	case <-time.After(5 * time.Second):
		t.Fatal("application A did not exit after remote destroy")
	}
}

func deadlineScan(t *testing.T, sc *bufio.Scanner, want string) {
	t.Helper()
	done := make(chan bool, 1)
	go func() {
		for sc.Scan() {
			if strings.Contains(sc.Text(), want) {
				done <- true
				return
			}
		}
		done <- false
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatalf("never saw %q", want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %q", want)
	}
}

// TestWishInteractive drives wish through its stdin command loop,
// including a multi-line command.
func TestWishInteractive(t *testing.T) {
	wish, _ := binaries(t)
	cmd := exec.Command(wish, "-name", "interactive")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(stdin, `button .b -text typed`)
	fmt.Fprintln(stdin, `pack append . .b {top}`)
	fmt.Fprintln(stdin, `proc double {x} {`)
	fmt.Fprintln(stdin, `  expr $x * 2`)
	fmt.Fprintln(stdin, `}`)
	// A brace inside quotes opens nothing, and a quoted string split
	// over two lines is one command.
	fmt.Fprintln(stdin, `print "a{\n"`)
	fmt.Fprintln(stdin, `set s "one`)
	fmt.Fprintln(stdin, `two"`)
	fmt.Fprintln(stdin, `print "s=[string length $s]\n"`)
	fmt.Fprintln(stdin, `print "double: [double 21]\n"`)
	fmt.Fprintln(stdin, `destroy .`)
	stdin.Close()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("interactive wish did not exit")
	}
	for _, want := range []string{"a{\n", "s=7\n", "double: 42"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("interactive output = %q, want %q in it", out.String(), want)
		}
	}
}

// TestXsimdLatencyFlag: the standalone server's -latency-us flag charges
// every wire segment, visible from a connected wish.
func TestXsimdLatencyFlag(t *testing.T) {
	wish, xsimd := binaries(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	srv := exec.Command(xsimd, "-addr", addr, "-latency-us", "2000")
	srvOut, _ := srv.StdoutPipe()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	sc := bufio.NewScanner(srvOut)
	if !sc.Scan() {
		t.Fatal("xsimd silent")
	}

	dir := t.TempDir()
	script := filepath.Join(dir, "t.tcl")
	// 20 color round trips at >=2ms each: the reported time must exceed
	// 40000 microseconds, proving the latency knob is live.
	if err := os.WriteFile(script, []byte(`
		set us [time {winfo interps} 20]
		print "$us\n"
		destroy .
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(wish, "-display", addr, "-f", script).CombinedOutput()
	if err != nil {
		t.Fatalf("wish: %v\n%s", err, out)
	}
	var us int
	if _, err := fmt.Sscanf(string(out), "%d microseconds", &us); err != nil {
		t.Fatalf("parse %q: %v", out, err)
	}
	if us < 2000 {
		t.Fatalf("per-iteration time %d µs: latency flag had no effect", us)
	}
}

// TestWishStartupFile: §5's startup file, read automatically before the
// script.
func TestWishStartupFile(t *testing.T) {
	wish, _ := binaries(t)
	dir := t.TempDir()
	rc := filepath.Join(dir, "wishrc")
	if err := os.WriteFile(rc, []byte(`proc fromrc {} {return "rc ran"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(dir, "app.tcl")
	if err := os.WriteFile(script, []byte(`print "[fromrc]\n"; destroy .`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(wish, "-f", script)
	cmd.Env = append(os.Environ(), "WISHRC="+rc)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("wish: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "rc ran") {
		t.Fatalf("startup file not sourced: %q", out)
	}
}

// TestSizesTool runs the Table I generator.
func TestSizesTool(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/sizes")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sizes: %v\n%s", err, out)
	}
	for _, want := range []string{"Intrinsics", "Geometry Manager", "Scrollbar", "Total", "15100"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("sizes output missing %q:\n%s", want, out)
		}
	}
}

// TestWishTraceFlag: wish -trace decodes the protocol stream. The
// script reads its own trace with "tkstats trace" while running, and
// the full accumulated trace is dumped to stderr at exit.
func TestWishTraceFlag(t *testing.T) {
	wish, _ := binaries(t)
	dir := t.TempDir()
	script := filepath.Join(dir, "app.tcl")
	if err := os.WriteFile(script, []byte(`
		button .b -text traced
		pack append . .b {top}
		update
		print "lines: [llength [split [tkstats trace] \n]]\n"
		print "roundtrip: [lindex [tkstats histogram roundtrip] 1]\n"
		destroy .
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(wish, "-trace", "-f", script)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("wish -trace failed: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	// The script saw a non-trivial trace from inside.
	var lines int
	if _, err := fmt.Sscanf(stdout.String(), "lines: %d", &lines); err != nil || lines < 10 {
		t.Fatalf("in-script trace had %d lines (err %v): %q", lines, err, stdout.String())
	}
	// The roundtrip histogram recorded at least one round trip.
	var rtts int
	for _, l := range strings.Split(stdout.String(), "\n") {
		fmt.Sscanf(l, "roundtrip: %d", &rtts)
	}
	if rtts == 0 {
		t.Fatalf("roundtrip histogram empty: %q", stdout.String())
	}
	// The exit dump decodes requests, replies and events with sequence
	// numbers and opcode names.
	dump := stderr.String()
	for _, want := range []string{"-> req ", "<- rep ", "<- evt ", "<- setup ", "CreateWindow", "MapWindow"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("exit trace missing %q:\n%s", want, dump)
		}
	}
	// Every line is sequence-numbered.
	for _, line := range strings.Split(strings.TrimSpace(dump), "\n") {
		var seq int
		if _, err := fmt.Sscanf(line, "%d ", &seq); err != nil || seq == 0 {
			t.Fatalf("unnumbered trace line %q", line)
		}
	}
}

// TestTclshTraceFlag: the Tcl-level counterpart — every command
// invocation is logged and dumped at exit.
func TestTclshTraceFlag(t *testing.T) {
	_, xsimd := binaries(t)
	tclsh := filepath.Join(filepath.Dir(xsimd), "tclsh")
	dir := t.TempDir()
	script := filepath.Join(dir, "s.tcl")
	if err := os.WriteFile(script, []byte(`
		set x 21
		puts "got [expr $x * 2]"
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tclsh, "-trace", script)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tclsh -trace: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "got 42") {
		t.Fatalf("script output = %q", stdout.String())
	}
	for _, want := range []string{"set x 21", "puts got 42"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("command trace missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestTclshScript exercises the plain Tcl shell.
func TestTclshScript(t *testing.T) {
	_, xsimd := binaries(t)
	tclsh := filepath.Join(filepath.Dir(xsimd), "tclsh")
	dir := t.TempDir()
	script := filepath.Join(dir, "s.tcl")
	if err := os.WriteFile(script, []byte(`
		proc fib {n} {
			if {$n < 2} {return $n}
			expr [fib [expr $n-1]] + [fib [expr $n-2]]
		}
		puts "fib(15)=[fib 15]"
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(tclsh, script).CombinedOutput()
	if err != nil {
		t.Fatalf("tclsh: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fib(15)=610") {
		t.Fatalf("output = %q", out)
	}
}

// TestTclshScriptReturn: a return at the top of a script ends it with
// its value, and the shell exits 0, as Tcl's tclsh does.
func TestTclshScriptReturn(t *testing.T) {
	_, xsimd := binaries(t)
	tclsh := filepath.Join(filepath.Dir(xsimd), "tclsh")
	script := filepath.Join(t.TempDir(), "r.tcl")
	if err := os.WriteFile(script, []byte("puts a; return foo; puts b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(tclsh, script).CombinedOutput()
	if err != nil {
		t.Fatalf("tclsh: %v\n%s", err, out)
	}
	if string(out) != "a\n" {
		t.Fatalf("output = %q, want %q", out, "a\n")
	}
}

// TestTclshInteractive: the plain shell reads stdin as wish does,
// continuing a command only inside an open brace, bracket or quote.
func TestTclshInteractive(t *testing.T) {
	_, xsimd := binaries(t)
	cmd := exec.Command(filepath.Join(filepath.Dir(xsimd), "tclsh"))
	cmd.Stdin = strings.NewReader("puts \"a{\"\nset s \"one\ntwo\"\nputs s=[string length $s]\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tclsh: %v\n%s", err, out)
	}
	for _, want := range []string{"a{\n", "s=7\n"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output = %q, want %q in it", out, want)
		}
	}
}
