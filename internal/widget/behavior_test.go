package widget_test

import (
	"strings"
	"testing"

	"repro/internal/tk"
	"repro/internal/xproto"
)

// TestScrollbarDrag drags the slider and checks the command stream it
// generates.
func TestScrollbarDrag(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`set seen {}`)
	app.MustEval(`proc view {n} {global seen; lappend seen $n}`)
	app.MustEval(`scrollbar .s -command view -length 200`)
	app.MustEval(`pack append . .s {top}`)
	app.MustEval(`.s set 100 10 0 9`)
	app.Update()

	sb, _ := app.NameToWindow(".s")
	rx, ry := sb.RootCoords()
	cx := rx + sb.Width/2
	// Press inside the slider (top area just below the arrow) and drag
	// down.
	arrow := sb.Width
	app.Disp.WarpPointer(cx, ry+arrow+5)
	app.Disp.FakeButton(1, true)
	app.Update()
	app.Disp.WarpPointer(cx, ry+arrow+60)
	app.Update()
	app.Disp.WarpPointer(cx, ry+arrow+120)
	app.Update()
	app.Disp.FakeButton(1, false)
	app.Update()

	seen := app.MustEval(`set seen`)
	if seen == "" {
		t.Fatal("drag generated no view commands")
	}
	// Units increase as we drag down.
	parts := strings.Fields(seen)
	first, last := parts[0], parts[len(parts)-1]
	if first >= last && len(parts) > 1 {
		t.Fatalf("drag sequence not increasing: %v", parts)
	}
}

// TestScrollbarPageClick clicks in the trough below the slider: page
// down by windowUnits-1.
func TestScrollbarPageClick(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`set got -1`)
	app.MustEval(`proc view {n} {global got; set got $n}`)
	app.MustEval(`scrollbar .s -command view -length 200`)
	app.MustEval(`pack append . .s {top}`)
	app.MustEval(`.s set 100 10 0 9`)
	app.Update()
	sb, _ := app.NameToWindow(".s")
	rx, ry := sb.RootCoords()
	click(app, rx+sb.Width/2, ry+sb.Height-sb.Width-10) // trough bottom
	if got := app.MustEval(`set got`); got != "9" {
		t.Fatalf("page down = %q, want 9 (first + window-1)", got)
	}
}

// TestRedrawCollapsing: many damage notifications collapse into one
// redraw per idle pass (§3.2's when-idle handlers exist for this).
func TestRedrawCollapsing(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`button .b -text X`)
	app.MustEval(`pack append . .b {top}`)
	app.Update()
	w, _ := app.NameToWindow(".b")
	// The client-side registry counts requests as they are sent — no
	// server round trip needed to measure, so the measurement itself
	// adds no traffic.
	requests := app.Metrics().Counter("requests")
	before := requests.Value()
	// Schedule many redraws before letting idle run.
	for i := 0; i < 50; i++ {
		w.ScheduleRedraw()
	}
	app.UpdateIdleTasks()
	// One redraw issues a handful of requests; 50 would issue hundreds.
	cost := requests.Value() - before
	if cost > 40 {
		t.Fatalf("50 scheduled redraws issued %d requests: not collapsed", cost)
	}
}

// TestVerticalScale covers the -orient vertical path.
func TestVerticalScale(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`scale .s -orient vertical -from 0 -to 50 -length 120`)
	app.MustEval(`pack append . .s {top}`)
	app.Update()
	s, _ := app.NameToWindow(".s")
	if s.Height != 120 || s.Width >= s.Height {
		t.Fatalf("vertical scale geometry %dx%d", s.Width, s.Height)
	}
	rx, ry := s.RootCoords()
	click(app, rx+8, ry+s.Height-8) // near the bottom: high value
	if got := app.MustEval(`.s get`); got == "0" {
		t.Fatal("vertical click did not move value")
	}
}

// TestMessageJustify exercises center/right justification and explicit
// newlines.
func TestMessageJustify(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`message .m -width 120 -justify center -text "one\ntwo words here\nthree"`)
	app.MustEval(`pack append . .m {top}`)
	app.Update()
	m, _ := app.NameToWindow(".m")
	if m.ReqHeight < 3*10 {
		t.Fatalf("3 lines should need height >= 30, got %d", m.ReqHeight)
	}
	app.MustEval(`.m configure -justify right`)
	app.Update()
}

// TestMenuDelete covers entry deletion and invalid indices.
func TestMenuDelete(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`menu .m`)
	app.MustEval(`.m add command -label A`)
	app.MustEval(`.m add command -label B`)
	app.MustEval(`.m delete 0`)
	if got := app.MustEval(`.m entrylabel 0`); got != "B" {
		t.Fatalf("after delete: %q", got)
	}
	if _, err := app.Eval(`.m delete 5`); err == nil {
		t.Fatal("bad index should fail")
	}
	if _, err := app.Eval(`.m add toggle -label X`); err == nil {
		t.Fatal("bad entry type should fail")
	}
}

// TestMenuActivate: activate takes only an entry's index, as delete and
// entrylabel do, and highlights that entry.
func TestMenuActivate(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`menu .empty; menu .m -activebackground red; .m add command -label A`)
	for _, script := range []string{`.empty activate 99`, `.empty activate end`, `.m activate 99`} {
		if _, err := app.Eval(script); err == nil {
			t.Errorf("%q succeeds, want an error", script)
		}
	}
	// red counts the menu's pixels in its -activebackground.
	red := func() int {
		app.Update()
		w, _ := app.NameToWindow(".m")
		shot, _ := app.Disp.Screenshot(w.XID)
		n := 0
		for i := 0; i+2 < len(shot.Pixels); i += 3 {
			if shot.Pixels[i] == 0xff && shot.Pixels[i+1] == 0 && shot.Pixels[i+2] == 0 {
				n++
			}
		}
		return n
	}
	app.MustEval(`.m post 40 40`)
	if n := red(); n != 0 {
		t.Fatalf("%d red pixels before activate", n)
	}
	app.MustEval(`.m activate 0`)
	if n := red(); n == 0 {
		t.Fatal("activate 0 does not highlight entry 0")
	}
}

// TestMenuInvoke: invoke takes only an entry's index, as activate,
// delete and entrylabel do, and runs that entry's command.
func TestMenuInvoke(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`menu .empty; menu .m; .m add command -label A -command {set ran A}`)
	for _, script := range []string{`.empty invoke 99`, `.empty invoke end`, `.m invoke 99`} {
		if _, err := app.Eval(script); err == nil || !strings.Contains(err.Error(), "bad menu entry index") {
			t.Errorf("%q: error %v, want bad menu entry index", script, err)
		}
	}
	app.MustEval(`set ran {}; .m invoke 0`)
	if got := app.MustEval(`set ran`); got != "A" {
		t.Fatalf("invoke 0 ran %q, want A", got)
	}
}

// TestWidgetOptionAbbreviationsViaTcl mirrors Tk's switch abbreviation.
func TestWidgetCreationErrors(t *testing.T) {
	app, _ := newApp(t)
	cases := []string{
		`button`,                      // no path
		`button badpath`,              // not starting with .
		`button .x -text`,             // missing value
		`button .x -nosuchopt v`,      // unknown option
		`button .deep.nested -text x`, // parent doesn't exist
	}
	for _, c := range cases {
		if _, err := app.Eval(c); err == nil {
			t.Errorf("%q should fail", c)
		}
	}
	// Failed creation must not leave a half-made window or command.
	if app.WindowExists(".x") {
		t.Fatal("failed widget creation left a window behind")
	}
	if app.Interp.HasCommand(".x") {
		t.Fatal("failed widget creation left a command behind")
	}
	// The name is reusable after the failure.
	app.MustEval(`button .x -text fine`)
}

// TestEnterLeaveActiveColors: buttons track the pointer for highlighting.
func TestEnterLeaveActiveState(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`button .b -text Hover -activebackground red`)
	app.MustEval(`pack append . .b {top}`)
	app.Update()
	w, _ := app.NameToWindow(".b")
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+5, ry+5)
	app.Update()
	// Check the active background actually rendered.
	shot, _ := app.Disp.Screenshot(w.XID)
	red := 0
	for i := 0; i+2 < len(shot.Pixels); i += 3 {
		if shot.Pixels[i] == 0xff && shot.Pixels[i+1] == 0 && shot.Pixels[i+2] == 0 {
			red++
		}
	}
	if red < 50 {
		t.Fatalf("active background not shown (%d red pixels)", red)
	}
	app.Disp.WarpPointer(rx+500, ry+500)
	app.Update()
	shot, _ = app.Disp.Screenshot(w.XID)
	red = 0
	for i := 0; i+2 < len(shot.Pixels); i += 3 {
		if shot.Pixels[i] == 0xff && shot.Pixels[i+1] == 0 && shot.Pixels[i+2] == 0 {
			red++
		}
	}
	if red > 50 {
		t.Fatal("active background stuck after leave")
	}
}

// TestKeysymPercentSubstitution: %K and %A in bindings.
func TestKeysymPercentSubstitution(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`entry .e`)
	app.MustEval(`pack append . .e {top}`)
	app.MustEval(`set keys {}`)
	app.MustEval(`bind .e <KeyPress> {lappend keys %K=%A}`)
	app.Update()
	w, _ := app.NameToWindow(".e")
	rx, ry := w.RootCoords()
	click(app, rx+5, ry+5)
	app.Disp.FakeKey('g', true)
	app.Disp.FakeKey('g', false)
	app.Disp.FakeKey(xproto.KsEscape, true)
	app.Disp.FakeKey(xproto.KsEscape, false)
	app.Update()
	got := app.MustEval(`set keys`)
	if !strings.Contains(got, "g=g") || !strings.Contains(got, "Escape=") {
		t.Fatalf("keys = %q", got)
	}
}

// TestMenuCostsNothingUntilPosted: building a menu sends no request for
// its window; its size and override-redirect wait in the toolkit's
// record. Posting it sends one CreateWindow, at the posted position.
func TestMenuCostsNothingUntilPosted(t *testing.T) {
	app, _ := newApp(t)
	m := app.Metrics()
	creates, configures := m.Counter("requests.CreateWindow"), m.Counter("requests.ConfigureWindow")
	c0, f0 := creates.Value(), configures.Value()
	app.MustEval(`menu .m
		.m add command -label Open
		.m add command -label Save
		.m add separator
		.m add command -label Quit`)
	app.Update()
	if n := configures.Value() - f0; n != 0 {
		t.Errorf("building the menu sent %d ConfigureWindow, want 0", n)
	}
	if n := creates.Value() - c0; n != 0 {
		t.Errorf("building the menu sent %d CreateWindow, want 0", n)
	}
	app.MustEval(`.m post 40 40`)
	app.Update()
	if n := creates.Value() - c0; n != 1 {
		t.Errorf("posting the menu sent %d CreateWindow, want 1", n)
	}
	w, _ := app.NameToWindow(".m")
	geom, err := app.Disp.GetGeometry(w.XID)
	if err != nil {
		t.Fatal(err)
	}
	if geom.X != 40 || geom.Y != 40 || int(geom.Width) != w.Width || int(geom.Height) != w.Height {
		t.Errorf("posted menu at %dx%d+%d+%d on the server, want %dx%d+40+40",
			geom.Width, geom.Height, geom.X, geom.Y, w.Width, w.Height)
	}
}

// TestToplevelMappedAtItsSize: a new top-level is mapped from an idle
// handler once the packer has sized it, as Tk's MapFrame maps it, so
// its window is created at its final size, with no ConfigureWindow,
// and painted once.
func TestToplevelMappedAtItsSize(t *testing.T) {
	app, _ := newApp(t)
	configures := app.Metrics().Counter("requests.ConfigureWindow")
	f0 := configures.Value()
	app.MustEval(`toplevel .t`)
	w, _ := app.NameToWindow(".t")
	paints := &redrawCounter{Widget: w.Widget}
	w.Widget = paints
	app.MustEval(`button .t.b -text hello; pack append .t .t.b {top}`)
	if got := app.MustEval(`winfo ismapped .t`); got != "0" {
		t.Fatalf("winfo ismapped .t before update = %s, want 0", got)
	}
	app.Update()
	if got := app.MustEval(`winfo ismapped .t`); got != "1" {
		t.Fatalf("winfo ismapped .t after update = %s, want 1", got)
	}
	if n := configures.Value() - f0; n != 0 {
		t.Errorf("sent %d ConfigureWindow, want 0", n)
	}
	geom, err := app.Disp.GetGeometry(w.XID)
	if err != nil {
		t.Fatal(err)
	}
	if int(geom.Width) != w.Width || int(geom.Height) != w.Height || w.Width == 1 {
		t.Errorf(".t is %dx%d on the server, want its packed size %dx%d", geom.Width, geom.Height, w.Width, w.Height)
	}
	if paints.n != 1 {
		t.Errorf(".t was painted %d times, want 1", paints.n)
	}
}

// TestToplevelWithdrawnBeforeMapped: a top-level withdrawn before its
// idle map stays unmapped until it is deiconified.
func TestToplevelWithdrawnBeforeMapped(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`toplevel .t; wm withdraw .t; update`)
	if got := app.MustEval(`winfo ismapped .t`); got != "0" {
		t.Fatalf("winfo ismapped .t after wm withdraw = %s, want 0", got)
	}
	app.MustEval(`wm deiconify .t; update`)
	if got := app.MustEval(`winfo ismapped .t`); got != "1" {
		t.Fatalf("winfo ismapped .t after wm deiconify = %s, want 1", got)
	}
}

// redrawCounter counts a widget's repaints.
type redrawCounter struct {
	tk.Widget
	n int
}

func (c *redrawCounter) Redraw() {
	c.n++
	c.Widget.Redraw()
}

// TestFlashUnmappedButton: flashing a button that was never mapped
// draws nothing, so it names no window the server lacks.
func TestFlashUnmappedButton(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`button .b -text Hello`)
	app.MustEval(`.b flash`)
}
