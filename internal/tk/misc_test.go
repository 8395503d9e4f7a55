package tk

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/xproto"
)

// TestTkerrorHook: a script-defined tkerror procedure receives background
// errors from bindings, as in Tk.
func TestTkerrorHook(t *testing.T) {
	app, out := newTestApp(t)
	mkWindow(t, app, ".x", 50, 50)
	app.MustEval(`pack append . .x {top}`)
	app.MustEval(`proc tkerror {msg} {print "caught: $msg"}`)
	app.MustEval(`bind .x z {nosuchcommand}`)
	app.Update()
	w, _ := app.NameToWindow(".x")
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+5, ry+5)
	app.Disp.FakeKey('z', true)
	app.Disp.FakeKey('z', false)
	app.Update()
	if !strings.Contains(out.String(), `caught: invalid command name "nosuchcommand"`) {
		t.Fatalf("tkerror output = %q", out.String())
	}
}

// TestTkerrorRunsGlobally: tkerror runs at global level, as Tk runs it,
// not in the frame of the procedure that entered the event loop, and
// receives a message with list-special characters intact.
func TestTkerrorRunsGlobally(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`set x global; proc tkerror {msg} {upvar x y; global seen; set seen $y}`)
	app.MustEval(`proc p {} {set x local; after 0 {error boom}; update}; p`)
	if got := app.MustEval(`set seen`); got != "global" {
		t.Fatalf("tkerror's upvar x read %q, want the global x", got)
	}
	app.MustEval(`proc tkerror {msg} {global seen; set seen $msg}`)
	app.MustEval(`after 0 [list error {a {b} "c; $d [e]}]; update`)
	if got := app.MustEval(`set seen`); got != `a {b} "c; $d [e]` {
		t.Fatalf("tkerror received %q", got)
	}
}

// TestReturnInEventScript: a return in a script the event loop runs
// ends that script; it is not a background error. An error return still
// is one.
func TestReturnInEventScript(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`set seen {}; proc tkerror {msg} {global seen; lappend seen $msg}`)
	app.MustEval(`after 0 {return foo}; update`)
	app.MustEval(`after 0 {return -code error bar}; update`)
	if got := app.MustEval(`set seen`); got != "bar" {
		t.Fatalf("tkerror received %q, want only bar", got)
	}
}

// TestTclSelectionHandle: selection handlers written in Tcl (§3.6).
func TestTclSelectionHandle(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".w", 10, 10)
	app.MustEval(`proc getsel {} {return "tcl-handler-data"}`)
	app.MustEval(`selection handle .w getsel`)
	app.MustEval(`selection own .w`)
	if got := app.MustEval(`selection get`); got != "tcl-handler-data" {
		t.Fatalf("selection get = %q", got)
	}
	app.MustEval(`selection clear`)
	if got := app.MustEval(`selection own`); got != "" {
		t.Fatalf("after clear, owner = %q", got)
	}
}

// TestPercentWSubstitution: %W names the event window.
func TestPercentWSubstitution(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".deep", 60, 60)
	app.MustEval(`pack append . .deep {top}`)
	app.MustEval(`bind .deep <Button-3> {set clickedWindow %W}`)
	app.Update()
	w, _ := app.NameToWindow(".deep")
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+5, ry+5)
	app.Disp.FakeButton(3, true)
	app.Disp.FakeButton(3, false)
	app.Update()
	if got := app.MustEval(`set clickedWindow`); got != ".deep" {
		t.Fatalf("%%W = %q", got)
	}
}

// TestEventPropagationToParent: an unbound child propagates device events
// upward until a window with a binding is found (X semantics).
func TestEventPropagationToParent(t *testing.T) {
	app, out := newTestApp(t)
	parent := mkWindow(t, app, ".p", 100, 100)
	parent.InternalBorder = 0
	child, err := app.CreateWindow(".p.c", "Frame")
	if err != nil {
		t.Fatal(err)
	}
	child.GeometryRequest(50, 50)
	app.MustEval(`pack append . .p {top}`)
	app.MustEval(`pack append .p .p.c {top}`)
	// Binding only on the parent.
	app.MustEval(`bind .p k {print "parent saw %x,%y"}`)
	app.Update()
	rx, ry := child.RootCoords()
	app.Disp.WarpPointer(rx+10, ry+10)
	app.Disp.FakeKey('k', true)
	app.Disp.FakeKey('k', false)
	app.Update()
	// The event propagated to the parent with translated coordinates.
	if !strings.Contains(out.String(), "parent saw") {
		t.Fatalf("propagation failed: %q", out.String())
	}
}

// TestAnyModifierBinding: bindings fire even with extra modifiers held
// (all bindings accept extra modifiers, as with Tk's Any- semantics of
// the era).
func TestExtraModifiersAccepted(t *testing.T) {
	app, out := newTestApp(t)
	mkWindow(t, app, ".x", 50, 50)
	app.MustEval(`pack append . .x {top}`)
	app.MustEval(`bind .x q {print plain}`)
	app.Update()
	w, _ := app.NameToWindow(".x")
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+5, ry+5)
	app.Disp.FakeKey(xproto.KsShiftL, true)
	app.Disp.FakeKey('q', true)
	app.Disp.FakeKey('q', false)
	app.Disp.FakeKey(xproto.KsShiftL, false)
	app.Update()
	if out.String() != "plain" {
		t.Fatalf("shifted q did not fire the unmodified binding: %q", out.String())
	}
}

// TestCreateTimerOrdering: timers fire in deadline order.
func TestTimerOrdering(t *testing.T) {
	app, _ := newTestApp(t)
	var order []int
	app.CreateTimerHandler(30_000_000, func() { order = append(order, 3) }) // 30ms
	app.CreateTimerHandler(10_000_000, func() { order = append(order, 1) }) // 10ms
	app.CreateTimerHandler(20_000_000, func() { order = append(order, 2) }) // 20ms
	for len(order) < 3 {
		app.DoOneEvent(true)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("timer order = %v", order)
	}
}

// TestWinfoScreenDimensions.
func TestWinfoScreenDimensions(t *testing.T) {
	app, _ := newTestApp(t)
	if app.MustEval(`winfo screenwidth .`) != "1024" {
		t.Fatal("screenwidth")
	}
	if app.MustEval(`winfo screenheight .`) != "768" {
		t.Fatal("screenheight")
	}
}

// TestOptionReadfile loads .Xdefaults from a real file.
func TestOptionReadfile(t *testing.T) {
	app, _ := newTestApp(t)
	dir := t.TempDir()
	path := dir + "/Xdefaults"
	if err := writeFile(path, "*Button.background: orange\n! comment\n*font: 5x7\n"); err != nil {
		t.Fatal(err)
	}
	app.MustEval(`option readfile ` + path)
	mkWindow(t, app, ".b", 5, 5)
	b, _ := app.NameToWindow(".b")
	b.Class = "Button"
	if got := app.GetOption(b, "background", "Background"); got != "orange" {
		t.Fatalf("readfile option = %q", got)
	}
	if _, err := app.Eval(`option readfile /no/such/file`); err == nil {
		t.Fatal("missing file should error")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestMainLoopQuit: MainLoop exits when Quit is posted.
func TestMainLoopQuit(t *testing.T) {
	app, _ := newTestApp(t)
	app.CreateTimerHandler(0, func() { app.Quit() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		app.MainLoop()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("MainLoop did not exit after Quit")
	}
}
