package widget_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xproto"
)

// newApp builds a full application with a private in-process server.
func newApp(t *testing.T) (*core.App, *bytes.Buffer) {
	t.Helper()
	app, err := core.NewApp(core.Options{Name: "wtest"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	// Every test ends with no asynchronous X error: a request that names
	// a window before it exists fails silently, counted only in
	// errors.async. The Sync brings every answer in first.
	t.Cleanup(func() {
		_ = app.Disp.Sync()
		if n := app.Metrics().Counter("errors.async").Value(); n != 0 {
			t.Errorf("%d asynchronous X errors", n)
		}
	})
	var out bytes.Buffer
	app.Interp.Out = &out
	return app, &out
}

// click synthesizes a button-1 click at root coordinates.
func click(app *core.App, x, y int) {
	app.Disp.WarpPointer(x, y)
	app.Disp.FakeButton(1, true)
	app.Disp.FakeButton(1, false)
	app.Update()
}

// centerOf returns the root coordinates of a widget's center.
func centerOf(t *testing.T, app *core.App, path string) (int, int) {
	t.Helper()
	w, err := app.NameToWindow(path)
	if err != nil {
		t.Fatal(err)
	}
	rx, ry := w.RootCoords()
	return rx + w.Width/2, ry + w.Height/2
}

// TestSection4ButtonExample runs the exact §4 example: create a button,
// invoke it with a mouse click, then reconfigure it.
func TestSection4ButtonExample(t *testing.T) {
	app, out := newApp(t)
	app.MustEval(`button .hello -bg Red -text "Hello, world" -command "print Hello!\n"`)
	app.MustEval(`pack append . .hello {top}`)
	app.Update()

	w, _ := app.NameToWindow(".hello")
	if w.Class != "Button" {
		t.Fatalf("class = %q", w.Class)
	}
	// The widget sized itself to its text.
	if w.Width < 60 || w.Height < 10 {
		t.Fatalf("button size %dx%d seems wrong", w.Width, w.Height)
	}
	// Clicking the button executes the command.
	cx, cy := centerOf(t, app, ".hello")
	click(app, cx, cy)
	// The \n in the quoted -command became a command separator during
	// creation-time substitution, so print emits just "Hello!".
	if out.String() != "Hello!" {
		t.Fatalf("command output %q, want %q", out.String(), "Hello!")
	}

	// ".hello flash" and ".hello configure -bg PalePink1 -relief sunken"
	// are the paper's follow-up widget commands.
	app.MustEval(`.hello flash`)
	app.MustEval(`.hello configure -bg PalePink1 -relief sunken`)
	app.Update()
	if got := app.MustEval(`lindex [.hello configure -background] 4`); got != "PalePink1" {
		t.Fatalf("configured background = %q", got)
	}
	if got := app.MustEval(`lindex [.hello configure -relief] 4`); got != "sunken" {
		t.Fatalf("configured relief = %q", got)
	}
}

func TestButtonConfigureIntrospection(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`button .b -text Hi`)
	// Full listing contains tuples.
	all := app.MustEval(`.b configure`)
	if !strings.Contains(all, "-background background Background") {
		t.Fatalf("configure listing missing background: %q", all)
	}
	// Single-option form.
	one := app.MustEval(`.b configure -text`)
	if one != "-text text Text {} Hi" {
		t.Fatalf("configure -text = %q", one)
	}
	// Synonym form.
	if got := app.MustEval(`.b configure -bg`); got != "-bg -background" {
		t.Fatalf("configure -bg = %q", got)
	}
	// Abbreviations work.
	app.MustEval(`.b configure -backgro Blue`)
	if got := app.MustEval(`lindex [.b configure -background] 4`); got != "Blue" {
		t.Fatalf("abbreviated configure = %q", got)
	}
	// Unknown option errors.
	if _, err := app.Eval(`.b configure -bogus x`); err == nil {
		t.Fatal("bogus option should fail")
	}
}

func TestButtonInvokeAndStates(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`button .b -text Go -command {incr clicks}`)
	app.MustEval(`set clicks 0`)
	app.MustEval(`.b invoke`)
	app.MustEval(`.b invoke`)
	if got := app.MustEval(`set clicks`); got != "2" {
		t.Fatalf("clicks = %s", got)
	}
	// A disabled button ignores clicks.
	app.MustEval(`pack append . .b {top}`)
	app.MustEval(`.b configure -state disabled`)
	app.Update()
	cx, cy := centerOf(t, app, ".b")
	click(app, cx, cy)
	if got := app.MustEval(`set clicks`); got != "2" {
		t.Fatalf("disabled button fired; clicks = %s", got)
	}
}

func TestCheckbuttonVariable(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`checkbutton .c -text Beep -variable beeping`)
	app.MustEval(`.c invoke`)
	if got := app.MustEval(`set beeping`); got != "1" {
		t.Fatalf("after invoke, beeping = %q", got)
	}
	app.MustEval(`.c invoke`)
	if got := app.MustEval(`set beeping`); got != "0" {
		t.Fatalf("after second invoke, beeping = %q", got)
	}
	app.MustEval(`.c select`)
	if got := app.MustEval(`set beeping`); got != "1" {
		t.Fatal("select")
	}
	app.MustEval(`.c deselect`)
	if got := app.MustEval(`set beeping`); got != "0" {
		t.Fatal("deselect")
	}
	app.MustEval(`.c toggle`)
	if got := app.MustEval(`set beeping`); got != "1" {
		t.Fatal("toggle")
	}
	// Custom on/off values.
	app.MustEval(`checkbutton .c2 -variable mode -onvalue fast -offvalue slow`)
	app.MustEval(`.c2 invoke`)
	if got := app.MustEval(`set mode`); got != "fast" {
		t.Fatalf("onvalue = %q", got)
	}
}

// TestCheckbuttonToggle: toggle flips the variable between -onvalue and
// -offvalue and, unlike invoke, runs no -command, as in Tk.
func TestCheckbuttonToggle(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`set ran 0; checkbutton .c -variable v -command {incr ran}`)
	for _, step := range []struct{ script, v, ran string }{
		{".c toggle", "1", "0"},
		{".c toggle", "0", "0"},
		{".c invoke", "1", "1"},
	} {
		app.MustEval(step.script)
		if v, ran := app.MustEval(`set v`), app.MustEval(`set ran`); v != step.v || ran != step.ran {
			t.Errorf("after %s: v=%s ran=%s, want v=%s ran=%s", step.script, v, ran, step.v, step.ran)
		}
	}
}

func TestRadiobuttonGroup(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`radiobutton .r1 -text A -variable which -value a`)
	app.MustEval(`radiobutton .r2 -text B -variable which -value b`)
	app.MustEval(`.r1 invoke`)
	if got := app.MustEval(`set which`); got != "a" {
		t.Fatalf("which = %q", got)
	}
	app.MustEval(`.r2 invoke`)
	if got := app.MustEval(`set which`); got != "b" {
		t.Fatalf("which = %q", got)
	}
}

func TestLabelHasNoAction(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`label .l -text "Just text"`)
	if _, err := app.Eval(`.l invoke`); err == nil {
		t.Fatal("labels should not be invokable")
	}
	if _, err := app.Eval(`.l flash`); err == nil {
		t.Fatal("labels should not flash")
	}
}

func TestListboxCommands(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`listbox .list -geometry 20x5`)
	app.MustEval(`pack append . .list {top}`)
	for _, it := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"} {
		app.MustEval(`.list insert end ` + it)
	}
	app.Update()
	if got := app.MustEval(`.list size`); got != "7" {
		t.Fatalf("size = %s", got)
	}
	if got := app.MustEval(`.list get 0`); got != "alpha" {
		t.Fatalf("get 0 = %q", got)
	}
	if got := app.MustEval(`.list get end`); got != "eta" {
		t.Fatalf("get end = %q", got)
	}
	app.MustEval(`.list insert 1 inserted`)
	if got := app.MustEval(`.list get 1`); got != "inserted" {
		t.Fatalf("insert middle = %q", got)
	}
	app.MustEval(`.list delete 1`)
	if got := app.MustEval(`.list get 1`); got != "beta" {
		t.Fatalf("after delete = %q", got)
	}
	app.MustEval(`.list delete 0 end`)
	if got := app.MustEval(`.list size`); got != "0" {
		t.Fatalf("after delete all = %s", got)
	}
}

// TestListboxScrollbarLinkage wires the two widgets exactly as §4
// describes: the scrollbar's command is ".list view"; the listbox's
// -scroll command is ".scroll set"; clicking the scrollbar changes the
// listbox view.
func TestListboxScrollbarLinkage(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`scrollbar .scroll -command ".list view"`)
	app.MustEval(`listbox .list -scroll ".scroll set" -geometry 10x5`)
	app.MustEval(`pack append . .scroll {right filly} .list {left}`)
	for i := 0; i < 30; i++ {
		app.MustEval(`.list insert end item` + app.MustEval(`format %02d `+itoa(i)))
	}
	app.Update()
	// The listbox told the scrollbar its state.
	got := app.MustEval(`.scroll get`)
	if got != "30 5 0 4" {
		t.Fatalf(".scroll get = %q, want \"30 5 0 4\"", got)
	}
	// Scrolling via the widget command (what the scrollbar synthesizes).
	app.MustEval(`.list view 10`)
	app.Update()
	if got := app.MustEval(`.scroll get`); got != "30 5 10 14" {
		t.Fatalf("after view 10: %q", got)
	}
	// Click the down arrow: the scrollbar runs ".list view 11".
	sb, _ := app.NameToWindow(".scroll")
	rx, ry := sb.RootCoords()
	click(app, rx+sb.Width/2, ry+sb.Height-3)
	app.Update()
	if got := app.MustEval(`.scroll get`); got != "30 5 11 15" {
		t.Fatalf("after arrow click: %q", got)
	}
	// Click the up arrow.
	click(app, rx+sb.Width/2, ry+3)
	app.Update()
	if got := app.MustEval(`.scroll get`); got != "30 5 10 14" {
		t.Fatalf("after up arrow: %q", got)
	}
}

// TestScrollCommandRunsAtIdle: a listbox or text runs its -scroll
// command from an idle handler, once for any number of changes, not
// inside the command that changed the view; a configure that fails runs
// it not at all.
func TestScrollCommandRunsAtIdle(t *testing.T) {
	for _, class := range []string{"listbox", "text"} {
		app, _ := newApp(t)
		app.MustEval(class + ` .l -scroll {lappend calls}; .l configure -bg red`)
		if app.Interp.VarExists("calls") {
			t.Fatalf("%s: calls = %q before update, want unset", class, app.MustEval(`set calls`))
		}
		app.Update()
		calls := app.MustEval(`set calls`)
		if n := app.MustEval(`llength $calls`); n != "4" {
			t.Fatalf("%s: calls = %q after update, want one call's four figures", class, calls)
		}
		app.MustEval(`catch {.l configure -bg nosuchcolor}`)
		app.Update()
		if got := app.MustEval(`set calls`); got != calls {
			t.Fatalf("%s: calls = %q after a failed configure, want %q", class, got, calls)
		}
	}
}

func itoa(i int) string {
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestListboxSelectionToXSelection(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`listbox .list -geometry 12x6`)
	app.MustEval(`pack append . .list {top}`)
	for _, it := range []string{"one", "two", "three"} {
		app.MustEval(`.list insert end ` + it)
	}
	app.Update()
	app.MustEval(`.list select from 1`)
	if got := app.MustEval(`.list curselection`); got != "1" {
		t.Fatalf("curselection = %q", got)
	}
	// The X selection now holds the item (Figure 9's "selection get").
	if got := app.MustEval(`selection get`); got != "two" {
		t.Fatalf("selection get = %q", got)
	}
	app.MustEval(`.list select to 2`)
	if got := app.MustEval(`selection get`); got != "two\nthree" {
		t.Fatalf("multi selection = %q", got)
	}
	// Click selects too.
	lb, _ := app.NameToWindow(".list")
	rx, ry := lb.RootCoords()
	click(app, rx+20, ry+8) // first row
	if got := app.MustEval(`selection get`); got != "one" {
		t.Fatalf("click selection = %q", got)
	}
}

func TestEntryEditing(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`entry .e -width 20`)
	app.MustEval(`pack append . .e {top}`)
	app.Update()
	app.MustEval(`.e insert 0 "hello"`)
	if got := app.MustEval(`.e get`); got != "hello" {
		t.Fatalf("get = %q", got)
	}
	app.MustEval(`.e insert end " world"`)
	if got := app.MustEval(`.e get`); got != "hello world" {
		t.Fatalf("get = %q", got)
	}
	app.MustEval(`.e delete 0 6`)
	if got := app.MustEval(`.e get`); got != "world" {
		t.Fatalf("after delete = %q", got)
	}
	// Keyboard input: click to focus, then type.
	cx, cy := centerOf(t, app, ".e")
	click(app, cx, cy)
	app.MustEval(`.e delete 0 end`)
	app.MustEval(`.e icursor 0`)
	for _, k := range "ab" {
		app.Disp.FakeKey(xproto.Keysym(k), true)
		app.Disp.FakeKey(xproto.Keysym(k), false)
	}
	app.Update()
	if got := app.MustEval(`.e get`); got != "ab" {
		t.Fatalf("typed text = %q", got)
	}
	// Backspace.
	app.Disp.FakeKey(xproto.KsBackSpace, true)
	app.Disp.FakeKey(xproto.KsBackSpace, false)
	app.Update()
	if got := app.MustEval(`.e get`); got != "a" {
		t.Fatalf("after backspace = %q", got)
	}
	// Shifted letter.
	app.Disp.FakeKey(xproto.KsShiftL, true)
	app.Disp.FakeKey('b', true)
	app.Disp.FakeKey('b', false)
	app.Disp.FakeKey(xproto.KsShiftL, false)
	app.Update()
	if got := app.MustEval(`.e get`); got != "aB" {
		t.Fatalf("shifted letter = %q", got)
	}
}

// TestSection5BackspaceWordBinding implements the paper's §5 example: a
// user-level binding that backspaces over a whole word when Control-w is
// typed in an entry — without modifying the entry widget.
func TestSection5BackspaceWordBinding(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`entry .e -width 30`)
	app.MustEval(`pack append . .e {top}`)
	app.MustEval(`.e insert 0 "hello brave world"`)
	app.MustEval(`.e icursor end`)
	app.MustEval(`bind .e <Control-w> {
		set s [.e get]
		set i [string wordstart $s [expr [.e index insert]-1]]
		.e delete $i end
	}`)
	app.Update()
	cx, cy := centerOf(t, app, ".e")
	click(app, cx, cy)
	app.MustEval(`.e icursor end`)
	app.Disp.FakeKey(xproto.KsControlL, true)
	app.Disp.FakeKey('w', true)
	app.Disp.FakeKey('w', false)
	app.Disp.FakeKey(xproto.KsControlL, false)
	app.Update()
	if got := app.MustEval(`.e get`); got != "hello brave " {
		t.Fatalf("after Control-w: %q", got)
	}
}

func TestEntryTextvariable(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`set name "initial"`)
	app.MustEval(`entry .e -textvariable name`)
	if got := app.MustEval(`.e get`); got != "initial" {
		t.Fatalf("initial = %q", got)
	}
	app.MustEval(`set name "changed"`)
	if got := app.MustEval(`.e get`); got != "changed" {
		t.Fatalf("after var change = %q", got)
	}
	app.MustEval(`.e insert end "!"`)
	if got := app.MustEval(`set name`); got != "changed!" {
		t.Fatalf("variable after edit = %q", got)
	}
}

// TestWidgetsUseGlobals: -textvariable and -variable name global
// variables, as in Tk, even for a widget created inside a procedure, and
// a -command runs at global level even when a procedure invokes it.
func TestWidgetsUseGlobals(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`set name before; set mode off; set x global`)
	app.MustEval(`proc mk {} {
		set x local
		entry .e -textvariable name
		checkbutton .c -variable mode -onvalue on -offvalue off
		button .b -command {set r $x}
		.b invoke
	}`)
	app.MustEval(`mk`)
	if got := app.MustEval(`set r`); got != "global" {
		t.Fatalf("-command read x as %q, want the global x", got)
	}
	app.MustEval(`set name after; set mode on`)
	if got := app.MustEval(`.e get`); got != "after" {
		t.Fatalf(".e get = %q after the global name changed", got)
	}
	app.MustEval(`.c invoke`)
	if got := app.MustEval(`set mode`); got != "off" {
		t.Fatalf("mode = %q after invoking the checkbutton that showed it on", got)
	}
}

// TestVariableLinksEndWithTheWidget: destroying a check or radio button
// or an entry removes the trace that linked it to its variable, so the
// variable no longer keeps the widget alive.
func TestVariableLinksEndWithTheWidget(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`checkbutton .c -variable v; radiobutton .r -variable v; entry .e -textvariable v`)
	if got := app.MustEval(`trace vinfo v`); got != "3" {
		t.Fatalf("trace vinfo v = %s with three widgets linked, want 3", got)
	}
	app.MustEval(`destroy .c .r .e`)
	if got := app.MustEval(`trace vinfo v`); got != "0" {
		t.Fatalf("trace vinfo v = %s after the widgets were destroyed, want 0", got)
	}
}

// TestUnsetKeepsVariableLink: an unset deletes a check button's
// variable with its traces, and the button links again, as Tk's
// ButtonVarProc does, so it follows the variable once it is set again.
func TestUnsetKeepsVariableLink(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`checkbutton .c -variable v -onvalue yes -offvalue no; set v yes; unset v; set v no; .c invoke`)
	if got := app.MustEval(`list $v [trace vinfo v]`); got != "yes 1" {
		t.Fatalf("v and trace vinfo v = %s after unset, set v no and invoke, want yes 1", got)
	}
}

// TestEntryUnsetRestoresVariable: an unset -textvariable is set back to
// the entry's text, as Tk's EntryTextVarProc does, and the entry stays
// linked to it.
func TestEntryUnsetRestoresVariable(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`entry .e -textvariable ev; .e insert 0 abc; unset ev`)
	if got := app.MustEval(`list [info exists ev] [.e get]`); got != "1 abc" {
		t.Fatalf("info exists ev and .e get = %s after unset ev, want 1 abc", got)
	}
	if got := app.MustEval(`set ev`); got != "abc" {
		t.Fatalf("ev = %q after unset ev, want abc", got)
	}
	app.MustEval(`set ev xyz`)
	if got := app.MustEval(`.e get`); got != "xyz" {
		t.Fatalf(".e get = %q after set ev xyz, want xyz", got)
	}
}

// TestConfigureMovesVariableLink: configure -variable and -textvariable
// move the widget's trace to the variable the option names now, as Tk's
// configure does: the widget follows the new variable, and the old one
// no longer reaches it.
func TestConfigureMovesVariableLink(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`checkbutton .c -variable a; .c configure -variable b; set b 1; .c invoke`)
	if got := app.MustEval(`list $b [trace vinfo a] [trace vinfo b]`); got != "0 0 1" {
		t.Fatalf("b, trace vinfo a and trace vinfo b = %s, want 0 0 1", got)
	}
	app.MustEval(`set s old; set u new; entry .e -textvariable s; .e configure -textvariable u`)
	if got := app.MustEval(`.e get`); got != "new" {
		t.Fatalf(".e get = %q after configure -textvariable u, want new", got)
	}
	app.MustEval(`set s changed; set u newer`)
	if got := app.MustEval(`list [.e get] [trace vinfo s]`); got != "newer 0" {
		t.Fatalf(".e get and trace vinfo s = %s, want newer 0", got)
	}
}

// TestTraceVdeleteKeepsWidgetLink: trace vdelete removes only the trace
// it names, not a checkbutton's link to the same variable.
func TestTraceVdeleteKeepsWidgetLink(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`checkbutton .c -variable v; trace variable v w foo; trace vdelete v w foo`)
	if got := app.MustEval(`trace vinfo v`); got != "1" {
		t.Fatalf("trace vinfo v = %s, want 1: the checkbutton's link", got)
	}
	app.MustEval(`set v 1; .c invoke`)
	if got := app.MustEval(`set v`); got != "0" {
		t.Fatalf("v = %s after invoking the checkbutton that showed it on, want 0", got)
	}
}

func TestScale(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`scale .s -from 0 -to 100 -length 120 -command {set scaleval}`)
	app.MustEval(`pack append . .s {top}`)
	app.Update()
	app.MustEval(`.s set 42`)
	if got := app.MustEval(`.s get`); got != "42" {
		t.Fatalf("get = %q", got)
	}
	if got := app.MustEval(`set scaleval`); got != "42" {
		t.Fatalf("command value = %q", got)
	}
	// Click near the right end moves the value up.
	s, _ := app.NameToWindow(".s")
	rx, ry := s.RootCoords()
	click(app, rx+s.Width-5, ry+8)
	v := app.MustEval(`.s get`)
	if v == "42" {
		t.Fatalf("click did not move scale (still %s)", v)
	}
}

func TestMessageWrapping(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`message .m -width 100 -text "the quick brown fox jumps over the lazy dog again and again"`)
	app.MustEval(`pack append . .m {top}`)
	app.Update()
	m, _ := app.NameToWindow(".m")
	// Multiple lines: height exceeds two line heights.
	if m.ReqHeight < 30 {
		t.Fatalf("message did not wrap: req height %d", m.ReqHeight)
	}
	if m.ReqWidth > 130 {
		t.Fatalf("message too wide: %d", m.ReqWidth)
	}
}

func TestMenuAndMenubutton(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`menubutton .mb -text File -menu .m`)
	app.MustEval(`menu .m`)
	app.MustEval(`.m add command -label Open -command {set action open}`)
	app.MustEval(`.m add separator`)
	app.MustEval(`.m add command -label Quit -command {set action quit}`)
	app.MustEval(`.m add checkbutton -label Verbose -variable verbose`)
	app.MustEval(`pack append . .mb {left}`)
	app.Update()
	if got := app.MustEval(`.m entrycount`); got != "4" {
		t.Fatalf("entrycount = %s", got)
	}
	if got := app.MustEval(`.m entrylabel 0`); got != "Open" {
		t.Fatalf("entrylabel = %q", got)
	}
	// Programmatic invoke.
	app.MustEval(`.m invoke 2`)
	if got := app.MustEval(`set action`); got != "quit" {
		t.Fatalf("action = %q", got)
	}
	app.MustEval(`.m invoke 3`)
	if got := app.MustEval(`set verbose`); got != "1" {
		t.Fatalf("checkbutton entry: verbose = %q", got)
	}

	// Interactive: press the menubutton to post, click an entry.
	cx, cy := centerOf(t, app, ".mb")
	app.Disp.WarpPointer(cx, cy)
	app.Disp.FakeButton(1, true)
	app.Disp.FakeButton(1, false)
	app.Update()
	m, _ := app.NameToWindow(".m")
	if !m.Mapped {
		t.Fatal("menu not posted after menubutton press")
	}
	// Click entry 0 ("Open").
	click(app, m.X+10, m.Y+10)
	if got := app.MustEval(`set action`); got != "open" {
		t.Fatalf("clicked entry: action = %q", got)
	}
	if m.Mapped {
		t.Fatal("menu should unpost after invoking")
	}
}

func TestFrameAndToplevel(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`frame .f -width 120 -height 60 -relief ridge -borderwidth 3`)
	app.MustEval(`pack append . .f {top}`)
	app.Update()
	f, _ := app.NameToWindow(".f")
	if f.Width != 120 || f.Height != 60 {
		t.Fatalf("frame size %dx%d", f.Width, f.Height)
	}
	// Old -geometry option.
	app.MustEval(`frame .g -geometry 50x40`)
	g, _ := app.NameToWindow(".g")
	if g.ReqWidth != 50 || g.ReqHeight != 40 {
		t.Fatalf("frame -geometry req %dx%d", g.ReqWidth, g.ReqHeight)
	}
	// Toplevel windows are children of the root on screen.
	app.MustEval(`toplevel .t -width 80 -height 50`)
	app.Update()
	tl, _ := app.NameToWindow(".t")
	if !tl.TopLevel {
		t.Fatal("toplevel flag not set")
	}
	if !tl.Mapped {
		t.Fatal("toplevel should map itself")
	}
}

func TestWidgetCommandLifetime(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`button .b -text Hi`)
	if !app.Interp.HasCommand(".b") {
		t.Fatal("widget command not registered")
	}
	app.MustEval(`destroy .b`)
	if app.Interp.HasCommand(".b") {
		t.Fatal("widget command should be deleted with the widget")
	}
	// Name can be reused.
	app.MustEval(`button .b -text Again`)
	if got := app.MustEval(`lindex [.b configure -text] 4`); got != "Again" {
		t.Fatalf("recreated widget text = %q", got)
	}
}

func TestOptionDatabaseFeedsWidgets(t *testing.T) {
	app, _ := newApp(t)
	// §3.5's example: all buttons get a red background.
	app.MustEval(`option add *Button.background red`)
	app.MustEval(`button .b -text X`)
	if got := app.MustEval(`lindex [.b configure -background] 4`); got != "red" {
		t.Fatalf("option-database background = %q", got)
	}
	// Explicit creation args still win.
	app.MustEval(`button .b2 -text Y -bg green`)
	if got := app.MustEval(`lindex [.b2 configure -background] 4`); got != "green" {
		t.Fatalf("explicit background = %q", got)
	}
}

func TestDialogBoxFromScript(t *testing.T) {
	// §5: "Tk contains no special support for dialog boxes ... dialogs
	// are created by writing short Tcl scripts."
	app, _ := newApp(t)
	app.MustEval(`
		toplevel .dlg -width 10 -height 10
		message .dlg.msg -width 150 -text "Do you really want to quit?"
		frame .dlg.btns
		button .dlg.btns.ok -text OK -command {set answer ok}
		button .dlg.btns.cancel -text Cancel -command {set answer cancel}
		pack append .dlg.btns .dlg.btns.ok {left expand} .dlg.btns.cancel {right expand}
		pack append .dlg .dlg.msg {top fillx} .dlg.btns {bottom fillx}
	`)
	app.Update()
	app.MustEval(`.dlg.btns.ok invoke`)
	if got := app.MustEval(`set answer`); got != "ok" {
		t.Fatalf("dialog answer = %q", got)
	}
	dlg, _ := app.NameToWindow(".dlg")
	if dlg.Width < 100 {
		t.Fatalf("dialog did not grow to content: %d", dlg.Width)
	}
}
