package tk

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// newTestApp builds a server + display + app for intrinsics tests.
func newTestApp(t testing.TB) (*App, *bytes.Buffer) {
	t.Helper()
	srv := xserver.New(1024, 768)
	t.Cleanup(srv.Close)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	app, err := NewApp(d, Config{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Destroy)
	t.Cleanup(func() { noAsyncErrors(t, d) })
	var out bytes.Buffer
	app.Interp.Out = &out
	return app, &out
}

// noAsyncErrors fails t if the server answered any one-way request of d
// with an error. Such a request fails silently: a window named before it
// exists gets BadWindow, which only errors.async counts. The Sync brings
// every answer in first; it fails harmlessly if the test closed d.
func noAsyncErrors(t testing.TB, d *xclient.Display) {
	_ = d.Sync()
	if n := d.Metrics().Counter("errors.async").Value(); n != 0 {
		t.Errorf("%d asynchronous X errors", n)
	}
}

// mkWindow creates a plain window with a requested size.
func mkWindow(t *testing.T, app *App, path string, reqW, reqH int) *Window {
	t.Helper()
	w, err := app.CreateWindow(path, "Frame")
	if err != nil {
		t.Fatal(err)
	}
	w.GeometryRequest(reqW, reqH)
	return w
}

func TestWindowNames(t *testing.T) {
	app, _ := newTestApp(t)
	a, err := app.CreateWindow(".a", "Frame")
	if err != nil {
		t.Fatal(err)
	}
	b, err := app.CreateWindow(".a.b", "Button")
	if err != nil {
		t.Fatal(err)
	}
	c, err := app.CreateWindow(".a.b.c", "Label")
	if err != nil {
		t.Fatal(err)
	}
	// §3.1: ".a.b.c" denotes a window c inside b inside a inside the
	// main window.
	if c.Parent != b || b.Parent != a || a.Parent != app.Main {
		t.Fatal("window hierarchy mismatch")
	}
	if w, err := app.NameToWindow(".a.b.c"); err != nil || w != c {
		t.Fatalf("NameToWindow: %v %v", w, err)
	}
	if _, err := app.NameToWindow(".a.nope"); err == nil {
		t.Fatal("lookup of bogus path should fail")
	}
	// Duplicate names are rejected.
	if _, err := app.CreateWindow(".a", "Frame"); err == nil {
		t.Fatal("duplicate window name should fail")
	}
	// Bad paths.
	for _, bad := range []string{"noDot", ".a..b", ".a.", ""} {
		if _, err := app.CreateWindow(bad, "X"); err == nil {
			t.Fatalf("CreateWindow(%q) should fail", bad)
		}
	}
}

func TestDestroySubtree(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".f", 10, 10)
	mkWindow(t, app, ".f.x", 10, 10)
	mkWindow(t, app, ".f.x.y", 10, 10)
	w, _ := app.NameToWindow(".f")
	app.DestroyWindow(w)
	for _, p := range []string{".f", ".f.x", ".f.x.y"} {
		if app.WindowExists(p) {
			t.Fatalf("window %s should be destroyed", p)
		}
	}
	if !app.WindowExists(".") {
		t.Fatal("main window should survive")
	}
}

// TestFigure7Bindings reproduces the paper's Figure 7: four bind commands
// covering Enter, a plain key, a two-key sequence and a double click with
// %-substitution.
func TestFigure7Bindings(t *testing.T) {
	app, out := newTestApp(t)
	mkWindow(t, app, ".x", 100, 100)
	app.MustEval(`pack append . .x {top}`)
	app.Update()

	app.MustEval(`bind .x <Enter> {print "hi\n"}`)
	app.MustEval(`bind .x a {print "you typed 'a'\n"}`)
	app.MustEval(`bind .x <Escape>q {print "you typed escape-q\n"}`)
	app.MustEval(`bind .x <Double-Button-1> {print "mouse at %x %y\n"}`)

	w, _ := app.NameToWindow(".x")
	rx, ry := w.RootCoords()

	// Mouse enters .x.
	app.Disp.WarpPointer(rx+10, ry+10)
	app.Update()
	if !strings.Contains(out.String(), "hi\n") {
		t.Fatalf("<Enter> binding did not fire; output %q", out.String())
	}
	out.Reset()

	// Letter a typed in .x.
	app.Disp.FakeKey('a', true)
	app.Disp.FakeKey('a', false)
	app.Update()
	if !strings.Contains(out.String(), "you typed 'a'") {
		t.Fatalf("key binding did not fire; output %q", out.String())
	}
	out.Reset()

	// Escape then q.
	app.Disp.FakeKey(xproto.KsEscape, true)
	app.Disp.FakeKey(xproto.KsEscape, false)
	app.Disp.FakeKey('q', true)
	app.Disp.FakeKey('q', false)
	app.Update()
	if !strings.Contains(out.String(), "you typed escape-q") {
		t.Fatalf("sequence binding did not fire; output %q", out.String())
	}
	out.Reset()

	// Double click: %x %y replaced with event coordinates.
	app.Disp.WarpPointer(rx+42, ry+17)
	app.Disp.FakeButton(1, true)
	app.Disp.FakeButton(1, false)
	app.Disp.FakeButton(1, true)
	app.Disp.FakeButton(1, false)
	app.Update()
	if !strings.Contains(out.String(), "mouse at 42 17") {
		t.Fatalf("double-click binding / %%-substitution failed; output %q", out.String())
	}
}

func TestBindQueryAndDelete(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".x", 10, 10)
	app.MustEval(`bind .x <Enter> {print enter}`)
	app.MustEval(`bind .x a {print a}`)
	got := app.MustEval(`bind .x`)
	if !strings.Contains(got, "<Enter>") || !strings.Contains(got, "a") {
		t.Fatalf("bind list = %q", got)
	}
	if app.MustEval(`bind .x <Enter>`) != "print enter" {
		t.Fatal("bind query failed")
	}
	// Append with +.
	app.MustEval(`bind .x <Enter> {+print more}`)
	if !strings.Contains(app.MustEval(`bind .x <Enter>`), "print more") {
		t.Fatal("+append failed")
	}
	// Delete by binding empty.
	app.MustEval(`bind .x <Enter> {}`)
	if app.MustEval(`bind .x <Enter>`) != "" {
		t.Fatal("binding not deleted")
	}
}

func TestBindSpecificityAndModifiers(t *testing.T) {
	app, out := newTestApp(t)
	w := mkWindow(t, app, ".x", 100, 100)
	app.MustEval(`pack append . .x {top}`)
	app.Update()
	app.MustEval(`bind .x q {print plain}`)
	app.MustEval(`bind .x <Control-q> {print control}`)
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+5, ry+5)

	app.Disp.FakeKey(xproto.KsControlL, true)
	app.Disp.FakeKey('q', true)
	app.Disp.FakeKey('q', false)
	app.Disp.FakeKey(xproto.KsControlL, false)
	app.Update()
	if got := out.String(); got != "control" {
		t.Fatalf("Control-q fired %q, want %q", got, "control")
	}
	out.Reset()
	app.Disp.FakeKey('q', true)
	app.Disp.FakeKey('q', false)
	app.Update()
	if got := out.String(); got != "plain" {
		t.Fatalf("plain q fired %q, want %q", got, "plain")
	}
}

func TestBadBindPatterns(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".x", 10, 10)
	for _, bad := range []string{"<NoSuchEvent>", "<Button-9>", "<Enter", "<Key-NotAKey>"} {
		if _, err := app.Eval(`bind .x ` + bad + ` {print x}`); err == nil {
			t.Errorf("bind %q should fail", bad)
		}
	}
}

// TestFigure8Packer reproduces Figure 8: four windows with requested
// sizes arranged all-in-a-column in a parent that is too small, so later
// windows are truncated.
func TestFigure8Packer(t *testing.T) {
	app, _ := newTestApp(t)
	// Parent fixed at 120x190 (the figure's (b): smaller than the sum of
	// requests).
	parent, _ := app.NameToWindow(".")
	a := mkWindow(t, app, ".a", 80, 50)
	b := mkWindow(t, app, ".b", 60, 40)
	c := mkWindow(t, app, ".c", 140, 50) // wider than the parent
	d := mkWindow(t, app, ".d", 100, 90) // extends past the bottom
	app.MustEval(`pack propagate . 0`)
	app.resizeWindow(parent, 0, 0, 120, 190, false)
	app.MustEval(`pack append . .a {top} .b {top} .c {top} .d {top}`)
	app.Update()

	if a.Width != 80 || a.Height != 50 {
		t.Fatalf("A = %dx%d, want 80x50 (fits)", a.Width, a.Height)
	}
	if b.Height != 40 {
		t.Fatalf("B height = %d, want 40", b.Height)
	}
	// C ends up with less width than requested: clamped to the parent.
	if c.Width != 120 {
		t.Fatalf("C width = %d, want truncated to 120", c.Width)
	}
	// D receives less height than requested: only 50 remain.
	if d.Height != 50 {
		t.Fatalf("D height = %d, want 50 (truncated)", d.Height)
	}
	// Stacked top-down.
	if a.Y >= b.Y || b.Y >= c.Y || c.Y >= d.Y {
		t.Fatalf("not stacked top-down: y = %d %d %d %d", a.Y, b.Y, c.Y, d.Y)
	}
}

func TestPackerSidesAndFill(t *testing.T) {
	app, _ := newTestApp(t)
	parent, _ := app.NameToWindow(".")
	scroll := mkWindow(t, app, ".scroll", 20, 100)
	list := mkWindow(t, app, ".list", 100, 100)
	app.MustEval(`pack propagate . 0`)
	app.resizeWindow(parent, 0, 0, 200, 150, false)
	// The exact command from Figure 9, line 4.
	app.MustEval(`pack append . .scroll {right filly} .list {left expand fill}`)
	app.Update()

	if scroll.X != 180 || scroll.Width != 20 {
		t.Fatalf("scrollbar at x=%d w=%d, want x=180 w=20", scroll.X, scroll.Width)
	}
	if scroll.Height != 150 {
		t.Fatalf("scrollbar filly height = %d, want 150", scroll.Height)
	}
	// The listbox expands and fills the remaining 180x150.
	if list.X != 0 || list.Width != 180 || list.Height != 150 {
		t.Fatalf("list = %d,%d %dx%d, want 0,y 180x150", list.X, list.Y, list.Width, list.Height)
	}
}

func TestPackerGeometryPropagation(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".a", 70, 30)
	mkWindow(t, app, ".b", 50, 40)
	app.MustEval(`pack append . .a {top} .b {top}`)
	app.Update()
	main := app.Main
	// The main window grows to fit the slaves: width max(70,50),
	// height 30+40.
	if main.Width != 70 || main.Height != 70 {
		t.Fatalf("main = %dx%d, want 70x70", main.Width, main.Height)
	}
	// A slave's new request propagates.
	a, _ := app.NameToWindow(".a")
	a.GeometryRequest(100, 60)
	app.Update()
	if main.Width != 100 || main.Height != 100 {
		t.Fatalf("after request, main = %dx%d, want 100x100", main.Width, main.Height)
	}
}

func TestPackForgetAndInfo(t *testing.T) {
	app, _ := newTestApp(t)
	a := mkWindow(t, app, ".a", 30, 30)
	mkWindow(t, app, ".b", 30, 30)
	app.MustEval(`pack append . .a {top padx 5} .b {left expand fillx}`)
	app.Update()
	info := app.MustEval(`pack info .`)
	if !strings.Contains(info, ".a") || !strings.Contains(info, "padx 5") ||
		!strings.Contains(info, "expand fillx") {
		t.Fatalf("pack info = %q", info)
	}
	if app.MustEval(`pack slaves .`) != ".a .b" {
		t.Fatalf("pack slaves = %q", app.MustEval(`pack slaves .`))
	}
	app.MustEval(`pack unpack .a`)
	app.Update()
	if app.MustEval(`pack slaves .`) != ".b" {
		t.Fatal("unpack failed")
	}
	if a.Manager != nil {
		t.Fatal("slave should have no manager after unpack")
	}
}

func TestOptionDatabase(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".b", 10, 10)
	b, _ := app.NameToWindow(".b")
	b.Class = "Button"
	// §3.5's example: "*Button.background: red".
	app.MustEval(`option add *Button.background red`)
	if got := app.GetOption(b, "background", "Background"); got != "red" {
		t.Fatalf("option lookup = %q, want red", got)
	}
	// A more specific pattern (by name) wins.
	app.MustEval(`option add *b.background blue`)
	if got := app.GetOption(b, "background", "Background"); got != "blue" {
		t.Fatalf("specific option = %q, want blue", got)
	}
	// Priorities dominate specificity.
	app.MustEval(`option add *background green widgetDefault`)
	if got := app.GetOption(b, "background", "Background"); got != "blue" {
		t.Fatalf("low-priority option overrode: %q", got)
	}
	// option get command.
	if got := app.MustEval(`option get .b background Background`); got != "blue" {
		t.Fatalf("option get = %q", got)
	}
	// No match.
	if got := app.GetOption(b, "foreground", "Foreground"); got != "" {
		t.Fatalf("unmatched option = %q, want empty", got)
	}
}

func TestOptionReadString(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".l", 10, 10)
	l, _ := app.NameToWindow(".l")
	l.Class = "Label"
	app.MustEval(`option readstring {
! comment line
*Label.foreground: navy
*font: 6x13
}`)
	if got := app.GetOption(l, "foreground", "Foreground"); got != "navy" {
		t.Fatalf("readstring option = %q", got)
	}
	if got := app.GetOption(l, "font", "Font"); got != "6x13" {
		t.Fatalf("loose wildcard option = %q", got)
	}
}

func TestResourceCacheReducesTraffic(t *testing.T) {
	app, srv, _ := statsApp(t, false)
	// Registry reads cost no server traffic, so the measurement does not
	// perturb what it measures.
	m := app.Metrics()
	alloc := m.Counter("requests.AllocNamedColor")
	rtts := m.Counter("roundtrips")
	before, beforeRtts := alloc.Value(), rtts.Value()
	// First lookup costs one AllocNamedColor round trip.
	if _, err := app.Color("MediumSeaGreen"); err != nil {
		t.Fatal(err)
	}
	if got := alloc.Value() - before; got != 1 {
		t.Fatalf("first lookup sent %d AllocNamedColor requests, want 1", got)
	}
	if got := rtts.Value() - beforeRtts; got != 1 {
		t.Fatalf("first lookup cost %d round trips, want 1", got)
	}
	// 100 more lookups cost nothing (§3.3).
	for i := 0; i < 100; i++ {
		if _, err := app.Color("MediumSeaGreen"); err != nil {
			t.Fatal(err)
		}
	}
	if got := alloc.Value() - before; got != 1 {
		t.Fatalf("cached lookups sent %d AllocNamedColor requests, want 1 total", got)
	}
	if hits := m.Counter("tk.cache.color.hits").Value(); hits < 100 {
		t.Fatalf("color cache hits = %d, want ≥ 100", hits)
	}
	// The server's registry agrees: once a Sync has drained the
	// connection, it has dispatched exactly the requests the client sent.
	if err := app.Disp.Sync(); err != nil {
		t.Fatal(err)
	}
	sm := srv.Metrics()
	if got, want := sm.Counter("requests.AllocNamedColor").Value(), alloc.Value(); got != want {
		t.Fatalf("server saw %d AllocNamedColor requests, client sent %d", got, want)
	}
	if got, want := sm.Counter("requests").Value(), m.Counter("requests").Value(); got != want {
		t.Fatalf("server saw %d requests, client sent %d", got, want)
	}
	// Reverse mapping: given the pixel, Tk returns the canonical
	// (lowercase) textual name, whatever casing the caller used.
	px, _ := app.Color("MediumSeaGreen")
	if app.NameOfColor(px) != "mediumseagreen" {
		t.Fatalf("NameOfColor = %q", app.NameOfColor(px))
	}
}

func TestGCSharing(t *testing.T) {
	app, _ := newTestApp(t)
	f, _ := app.FontByName("fixed")
	gc1 := app.GC(0x000000, 0xffffff, 1, f.ID)
	gc2 := app.GC(0x000000, 0xffffff, 1, f.ID)
	if gc1 != gc2 {
		t.Fatal("identical GCs not shared")
	}
	gc3 := app.GC(0xff0000, 0xffffff, 1, f.ID)
	if gc3 == gc1 {
		t.Fatal("different GCs wrongly shared")
	}
	_, _, gcs, _ := app.CacheStats()
	if gcs != 2 {
		t.Fatalf("gc cache size = %d, want 2", gcs)
	}
}

func TestTimersAndIdle(t *testing.T) {
	app, _ := newTestApp(t)
	var order []string
	app.CreateTimerHandler(0, func() { order = append(order, "timer") })
	app.DoWhenIdle(func() { order = append(order, "idle") })
	// Idle handlers run only when no timers are due.
	for len(order) < 2 {
		app.DoOneEvent(true)
	}
	if order[0] != "timer" || order[1] != "idle" {
		t.Fatalf("order = %v", order)
	}
	// Cancellation.
	fired := false
	id := app.CreateTimerHandler(0, func() { fired = true })
	app.DeleteTimerHandler(id)
	app.Update()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestAfterCommand(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`after 1 {set fired 1}`)
	deadline := 0
	for !app.Interp.VarExists("fired") && deadline < 1000 {
		app.DoOneEvent(true)
		deadline++
	}
	if v, _ := app.Interp.GetVar("fired"); v != "1" {
		t.Fatal("after script did not run")
	}
	// after idle.
	app.MustEval(`after idle {set idled 1}`)
	app.Update()
	if v, _ := app.Interp.GetVar("idled"); v != "1" {
		t.Fatal("after idle did not run")
	}
	// after cancel.
	id := app.MustEval(`after 50 {set never 1}`)
	app.MustEval(`after cancel ` + id)
	app.MustEval(`after 60`) // waits 60ms processing events
	if app.Interp.VarExists("never") {
		t.Fatal("cancelled after fired")
	}
}

func TestFocusCommand(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".e", 50, 20)
	app.MustEval(`pack append . .e {top}`)
	app.Update()
	app.MustEval(`focus .e`)
	app.Update()
	if got := app.MustEval(`focus`); got != ".e" {
		t.Fatalf("focus = %q, want .e", got)
	}
	// §3.7: keystrokes go to the focus window even with the pointer
	// elsewhere.
	var out bytes.Buffer
	app.Interp.Out = &out
	app.MustEval(`bind .e x {print focused}`)
	app.Disp.WarpPointer(900, 700) // far away
	app.Disp.FakeKey('x', true)
	app.Disp.FakeKey('x', false)
	app.Update()
	if out.String() != "focused" {
		t.Fatalf("focused key output %q", out.String())
	}
	app.MustEval(`focus none`)
	app.Update()
	if got := app.MustEval(`focus`); got != "none" {
		t.Fatalf("focus after none = %q", got)
	}
}

func TestWinfo(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".f", 44, 33)
	f, _ := app.NameToWindow(".f")
	f.Class = "Frame"
	mkWindow(t, app, ".f.k", 10, 10)
	app.MustEval(`pack append . .f {top}`)
	app.Update()
	if app.MustEval(`winfo exists .f`) != "1" || app.MustEval(`winfo exists .zz`) != "0" {
		t.Fatal("winfo exists")
	}
	if app.MustEval(`winfo class .f`) != "Frame" {
		t.Fatal("winfo class")
	}
	if app.MustEval(`winfo children .f`) != ".f.k" {
		t.Fatal("winfo children")
	}
	if app.MustEval(`winfo parent .f.k`) != ".f" {
		t.Fatal("winfo parent")
	}
	if app.MustEval(`winfo reqwidth .f`) != "44" {
		t.Fatal("winfo reqwidth")
	}
	if app.MustEval(`winfo width .f`) != "44" {
		t.Fatalf("winfo width = %s", app.MustEval(`winfo width .f`))
	}
	if app.MustEval(`winfo toplevel .f.k`) != "." {
		t.Fatal("winfo toplevel")
	}
	if app.MustEval(`winfo name .`) != "test" {
		t.Fatal("winfo name of .")
	}
	if !strings.Contains(app.MustEval(`winfo interps`), "test") {
		t.Fatal("winfo interps")
	}
}

func TestWmTitle(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`wm title . "My Application"`)
	if got := app.MustEval(`wm title .`); got != "My Application" {
		t.Fatalf("wm title = %q", got)
	}
	app.MustEval(`wm geometry . 300x150`)
	app.Update()
	if app.Main.Width != 300 || app.Main.Height != 150 {
		t.Fatalf("wm geometry: %dx%d", app.Main.Width, app.Main.Height)
	}
}

func TestDestroyCommandAndBinding(t *testing.T) {
	app, out := newTestApp(t)
	mkWindow(t, app, ".x", 10, 10)
	app.MustEval(`bind .x <Destroy> {print destroyed}`)
	app.MustEval(`destroy .x`)
	if !strings.Contains(out.String(), "destroyed") {
		t.Fatal("<Destroy> binding did not fire")
	}
	if app.WindowExists(".x") {
		t.Fatal("window still exists")
	}
	// destroy . tears down the app.
	app.MustEval(`destroy .`)
	if !app.Quitting() {
		t.Fatal("destroying . should quit the app")
	}
}

func TestSelectionWithinApp(t *testing.T) {
	app, _ := newTestApp(t)
	w := mkWindow(t, app, ".l", 10, 10)
	app.SetSelectionHandler(w, func() string { return "selected text" })
	app.OwnSelection(w, nil)
	got, err := app.GetSelection()
	if err != nil || got != "selected text" {
		t.Fatalf("GetSelection: %q %v", got, err)
	}
	// Tcl interface.
	if app.MustEval(`selection get`) != "selected text" {
		t.Fatal("selection get via Tcl")
	}
	if app.MustEval(`selection own`) != ".l" {
		t.Fatal("selection own query")
	}
}

func TestSelectionAcrossApps(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	mkApp := func(name string) *App {
		d, err := xclient.Open(srv.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		app, err := NewApp(d, Config{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(app.Destroy)
		return app
	}
	a1 := mkApp("one")
	a2 := mkApp("two")
	w1, _ := a1.CreateWindow(".l", "Listbox")
	a1.SetSelectionHandler(w1, func() string { return "from app one" })
	a1.OwnSelection(w1, nil)
	a1.Update()

	// App 2 retrieves across applications: the ICCCM dance runs while
	// app 1 is serviced by a background pump.
	stop := a1.StartServing()
	got, err := a2.GetSelection()
	stop()
	if err != nil || got != "from app one" {
		t.Fatalf("cross-app selection: %q %v", got, err)
	}

	// App 2 claims the selection; app 1's lost callback runs.
	lost := false
	a1.OwnSelection(w1, func(*Window) { lost = true })
	a1.Update()
	w2, _ := a2.CreateWindow(".x", "Entry")
	a2.SetSelectionHandler(w2, func() string { return "now two" })
	a2.OwnSelection(w2, nil)
	a2.Update()
	a1.Update()
	if !lost {
		t.Fatal("selection-lost callback did not fire")
	}
}

func TestSendBetweenApps(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	mkApp := func(name string) *App {
		d, err := xclient.Open(srv.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		app, err := NewApp(d, Config{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(app.Destroy)
		return app
	}
	sender := mkApp("sender")
	target := mkApp("target")
	target.MustEval(`set greeting "hello from target"`)

	// The target must be pumping its loop (it is a live application).
	defer target.StartServing()()

	// §6: send invokes a Tcl command in another application and returns
	// the result.
	got, err := sender.Send("target", "set greeting")
	if err != nil || got != "hello from target" {
		t.Fatalf("send: %q %v", got, err)
	}

	// Errors propagate back.
	if _, err := sender.Send("target", "nosuchcommand"); err == nil ||
		!strings.Contains(err.Error(), "invalid command name") {
		t.Fatalf("send error = %v", err)
	}

	// Via Tcl.
	if got := sender.MustEval(`send target {expr 6*7}`); got != "42" {
		t.Fatalf("Tcl send = %q", got)
	}

	// Unknown target.
	if _, err := sender.Send("nobody", "set x"); err == nil {
		t.Fatal("send to unknown app should fail")
	}

	// Send to self evaluates locally.
	sender.MustEval(`set local 7`)
	if got, _ := sender.Send("sender", "set local"); got != "7" {
		t.Fatal("send to self")
	}
}

func TestSendNameUniquified(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	var apps []*App
	for i := 0; i < 3; i++ {
		d, err := xclient.Open(srv.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		app, err := NewApp(d, Config{Name: "browse"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(app.Destroy)
		apps = append(apps, app)
	}
	if apps[0].Name != "browse" || apps[1].Name != "browse #2" || apps[2].Name != "browse #3" {
		t.Fatalf("names = %q %q %q", apps[0].Name, apps[1].Name, apps[2].Name)
	}
	// All registered.
	interps := apps[2].Interps()
	if len(interps) != 3 {
		t.Fatalf("interps = %v", interps)
	}
	// Unregistration on destroy.
	apps[1].Destroy()
	if n := len(apps[0].Interps()); n != 2 {
		t.Fatalf("after destroy, %d interps", n)
	}
}

func TestTkwaitVariable(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`after 1 {set waited done}`)
	app.MustEval(`tkwait variable waited`)
	if v, _ := app.Interp.GetVar("waited"); v != "done" {
		t.Fatal("tkwait variable")
	}
}

// TestEventScriptsRunGlobally: bindings, after and after idle scripts
// and send run in the global frame even when a procedure enters the
// event loop, as Tcl_GlobalEval has them.
func TestEventScriptsRunGlobally(t *testing.T) {
	app, _ := newTestApp(t)
	w := mkWindow(t, app, ".x", 100, 100)
	app.MustEval(`pack append . .x {top}; bind .x <Button-1> {set b $x}`)
	app.Update()
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+10, ry+10)
	app.Disp.FakeButton(1, true)
	app.Disp.FakeButton(1, false)
	app.MustEval(`set x global; set r unset; set s unset; set b unset`)
	app.MustEval(`proc p {} {set x local; after 0 {set r $x}; after idle {set s $x}; update; send test {set x}}`)
	if got := app.MustEval(`p`); got != "global" {
		t.Fatalf("send to self read x as %q, want the global x", got)
	}
	if got := app.MustEval(`list $r $s $b`); got != "global global global" {
		t.Fatalf("after, after idle and the binding read x as %q, want the global x each time", got)
	}
}

// TestTkwaitVariableInProc: tkwait variable waits on the global
// variable, the one an after script running globally sets. A guard
// timer ends the wait if the two disagree.
func TestTkwaitVariableInProc(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`set guard [after 5000 {destroy .}]`)
	app.MustEval(`proc w {} {after 10 {set done 1}; tkwait variable done}`)
	app.MustEval(`w`)
	if app.Quitting() {
		t.Fatal("tkwait variable done, called in a proc, still waited after 5 s")
	}
	app.MustEval(`after cancel $guard`)
	if got, err := app.Interp.GetGlobal("done"); got != "1" {
		t.Fatalf("global done = %q, %v", got, err)
	}
}

func TestConfigFramework(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".b", 10, 10)
	w, _ := app.NameToWindow(".b")
	w.Class = "Button"
	specs := []OptionSpec{
		{Name: "-background", DBName: "background", DBClass: "Background", Default: "Bisque1"},
		{Name: "-bg", Synonym: "-background"},
		{Name: "-text", DBName: "text", DBClass: "Text", Default: ""},
		{Name: "-borderwidth", DBName: "borderWidth", DBClass: "BorderWidth", Default: "2"},
	}
	cv := NewConfigValues(specs)
	app.MustEval(`option add *Button.text "from db"`)
	cv.ApplyDefaults(app, w)
	if cv.Get("-background") != "Bisque1" {
		t.Fatalf("default = %q", cv.Get("-background"))
	}
	if cv.Get("-text") != "from db" {
		t.Fatalf("db value = %q", cv.Get("-text"))
	}
	// Synonyms and abbreviations.
	if err := cv.Set("-bg", "red"); err != nil {
		t.Fatal(err)
	}
	if cv.Get("-background") != "red" {
		t.Fatal("synonym set failed")
	}
	if err := cv.Set("-bor", "5"); err != nil {
		t.Fatal(err)
	}
	if cv.GetInt("-borderwidth", 0) != 5 {
		t.Fatal("abbreviation set failed")
	}
	if err := cv.Set("-b", "x"); err == nil {
		t.Fatal("ambiguous abbreviation should fail")
	}
	// Describe output matches Tk's configure tuples.
	desc, err := cv.Describe("-background")
	if err != nil || !strings.Contains(desc, "background Background Bisque1 red") {
		t.Fatalf("describe = %q %v", desc, err)
	}
	desc, _ = cv.Describe("-bg")
	if desc != "-bg -background" {
		t.Fatalf("synonym describe = %q", desc)
	}
}

func TestUpdateIdletasksOnlyRunsIdle(t *testing.T) {
	app, _ := newTestApp(t)
	idleRan := false
	app.DoWhenIdle(func() { idleRan = true })
	timerRan := false
	app.CreateTimerHandler(0, func() { timerRan = true })
	app.UpdateIdleTasks()
	if !idleRan {
		t.Fatal("idle did not run")
	}
	if timerRan {
		t.Fatal("timer should not run in update idletasks")
	}
}
