package widget_test

import (
	"strings"
	"testing"

	"repro/internal/xproto"
)

// TestBindingParity: `bind` on a frame, `.c bind` on a canvas item and
// `.t tag bind` on a text tag go through one binding table, so they
// take the same sequences, scripts and %-sequences and run them on the
// same events.
func TestBindingParity(t *testing.T) {
	// A target is an object a binding command attaches scripts to, and
	// where in its window a click finds it.
	type target struct {
		name  string
		setup string // creates the window and the object
		bind  string // the binding command and the object
		win   string // the window the events go to (%W)
		x, y  int
	}
	targets := []target{
		{"frame", "frame .f -width 100 -height 60", "bind .f", ".f", 20, 20},
		{"canvas item", "canvas .c -width 100 -height 60\n.c create rectangle 10 10 50 50 -tags r", ".c bind r", ".c", 20, 20},
		{"text tag", "text .t -width 20 -height 3\n.t insert end {normal LINK normal}\n.t tag add hot 1.7 1.11", ".t tag bind hot", ".t", 2 + 3 + 8*6, 8},
	}
	// In a case's script BIND stands for the target's binding command
	// and object. After the script and the clicks, $hit reads want, in
	// which WIN stands for the target's window.
	cases := []struct {
		name   string
		only   string // the one target the case applies to, or "" for all
		script string
		button int // the button clicked, 0 for no click
		clicks int
		shift  bool // Shift is held down over the clicks
		want   string
	}{
		{name: "<1>", script: `BIND <1> {lappend hit 1}`, button: 1, clicks: 1, want: "1"},
		{name: "<ButtonPress-1>", script: `BIND <ButtonPress-1> {lappend hit press}`, button: 1, clicks: 1, want: "press"},
		{name: "Shift-click", script: "BIND <Button-1> {lappend hit plain}\nBIND <Shift-Button-1> {lappend hit shift}",
			button: 1, clicks: 1, shift: true, want: "shift"},
		{name: "double click", script: `BIND <Double-Button-1> {lappend hit double}`, button: 1, clicks: 2, want: "double"},
		{name: "+ appends", script: "BIND <Button-1> {lappend hit first}\nBIND <Button-1> {+lappend hit second}",
			button: 1, clicks: 1, want: "first second"},
		{name: "%-sequences", script: `BIND <Button-1> {set hit "%W %b %%x"}`, button: 1, clicks: 1, want: "WIN 1 %x"},
		{name: "<Foo>", script: `catch {BIND <Foo> {lappend hit foo}} hit`, want: `bad event type or keysym "Foo" in binding <Foo>`},
		{name: "<Foo> query", script: `catch {BIND <Foo>} hit`, want: `bad event type or keysym "Foo" in binding <Foo>`},
		{name: "listing", script: "BIND <1> x\nBIND <Button-3> y\nset hit [BIND]", want: "<1> <Button-3>"},
		{name: "<Button-3>", script: `BIND <Button-3> {lappend hit 3}`, button: 3, clicks: 1, want: "3"},
		{name: "delete", only: "canvas item", script: ".c bind 1 <1> x\nlappend hit [.c bind 1]\n.c delete 1\nlappend hit [.c bind 1]",
			want: "<1> {}"},
	}
	for _, tg := range targets {
		for _, tc := range cases {
			if tc.only != "" && tc.only != tg.name {
				continue
			}
			t.Run(tg.name+"/"+tc.name, func(t *testing.T) {
				app, out := newApp(t)
				app.MustEval(tg.setup + "\npack append . " + tg.win + " {top}\nset hit {}")
				app.Update()
				if _, err := app.Eval(strings.ReplaceAll(tc.script, "BIND", tg.bind)); err != nil {
					t.Fatal(err)
				}
				if tc.button != 0 {
					w, _ := app.NameToWindow(tg.win)
					rx, ry := w.RootCoords()
					app.Disp.WarpPointer(rx+tg.x, ry+tg.y)
					if tc.shift {
						app.Disp.FakeKey(xproto.KsShiftL, true)
					}
					for i := 0; i < tc.clicks; i++ {
						app.Disp.FakeButton(tc.button, true)
						app.Disp.FakeButton(tc.button, false)
					}
					if tc.shift {
						app.Disp.FakeKey(xproto.KsShiftL, false)
					}
					app.Update()
				}
				if got, want := app.MustEval(`set hit`), strings.ReplaceAll(tc.want, "WIN", tg.win); got != want {
					t.Errorf("hit = %q, want %q", got, want)
				}
				if out.Len() != 0 {
					t.Errorf("background errors: %s", out)
				}
			})
		}
	}
}
