package tk

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/tcl"
	"repro/internal/xproto"
)

// FuzzBindSequence binds any sequence and script in a binding table. No
// method of the table panics, nor does %-substitution of the script. A
// sequence the table rejects leaves the object's bindings as they were,
// and CheckSequence rejects it too. One it accepts, bound beside
// <Button-1>, is queried by its own text for its script, replaces or
// appends to <Button-1>'s binding if it parses as <Button-1> does, and is
// listed once; bound alone, it can be queried and then deleted, which
// leaves the object with no sequences.
func FuzzBindSequence(f *testing.F) {
	for _, seed := range []struct{ seq, script string }{
		// Figure 7.
		{"<Enter>", `print "hi\n"`},
		{"a", `print "you typed 'a'\n"`},
		{"<Escape>q", `print "you typed escape-q\n"`},
		{"<Double-Button-1>", `print "mouse at %x %y\n"`},
		// The binding parity table (internal/widget/bind_test.go).
		{"<1>", "lappend hit 1"},
		{"<ButtonPress-1>", "lappend hit press"},
		{"<Shift-Button-1>", "lappend hit shift"},
		{"<Button-1>", "+lappend hit second"},
		{"<Button-1>", `set hit "%W %b %%x"`},
		{"<Foo>", "lappend hit foo"},
		{"<Button-3>", ""},
		// The fuzzed object's <Button-1>, deleted and appended to by
		// other spellings.
		{"<ButtonPress-1>", ""},
		{"<Any-Button-1>", "+lappend hit any"},
	} {
		f.Add(seed.seq, seed.script)
	}
	w := &Window{Path: ".w"}
	ev := &xproto.Event{Type: xproto.ButtonPress, Detail: 1, X: 3, Y: 4}
	f.Fuzz(func(t *testing.T, seq, script string) {
		_ = substitutePercents(script, w, ev)
		bt := NewBindingTable()
		// query runs a query of bt that cannot fail.
		query := func(object string, args ...string) string {
			res, _, err := bt.Bind(object, args)
			if err != nil {
				t.Fatalf("query %s %q: %v", object, args, err)
			}
			return res
		}
		if _, _, err := bt.Bind("old", []string{"<Button-1>", "prior"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := bt.Bind("old", []string{seq, script}); err != nil {
			if CheckSequence(seq) == nil {
				t.Fatalf("Bind rejects %q (%v), CheckSequence accepts it", seq, err)
			}
			if got := query("old"); got != "<Button-1>" {
				t.Fatalf("rejected %q: sequences %q, want <Button-1>", seq, got)
			}
			if got := query("old", "<Button-1>"); got != "prior" {
				t.Fatalf("rejected %q: <Button-1> runs %q, want prior", seq, got)
			}
			return
		}
		if err := CheckSequence(seq); err != nil {
			t.Fatalf("Bind accepts %q, CheckSequence rejects it: %v", seq, err)
		}
		parsed, _ := parseSequence(seq)
		button1, _ := parseSequence("<Button-1>")
		same := slices.Equal(parsed, button1)
		want, appended := strings.CutPrefix(script, "+")
		if same && appended {
			want = "prior\n" + want
		}
		if got := query("old", seq); got != want {
			t.Fatalf("beside <Button-1>, %q runs %q, want %q", seq, got, want)
		}
		n := 2 // <Button-1> and seq
		if same {
			n--
		}
		if script == "" {
			n--
		}
		if got, _ := tcl.ParseList(query("old")); len(got) != n {
			t.Fatalf("beside <Button-1>, %q: sequences %q, want %d", seq, got, n)
		}
		if _, _, err := bt.Bind("new", []string{seq, script}); err != nil {
			t.Fatalf("%q accepted once, then rejected: %v", seq, err)
		}
		if got, want := query("new", seq), strings.TrimPrefix(script, "+"); got != want {
			t.Fatalf("%q runs %q, want %q", seq, got, want)
		}
		if _, _, err := bt.Bind("new", []string{seq, ""}); err != nil {
			t.Fatalf("deleting %q: %v", seq, err)
		}
		if got := query("new"); got != "" {
			t.Fatalf("after deleting %q: sequences %q", seq, got)
		}
		bt.Forget("old")
		if got := query("old"); got != "" {
			t.Fatalf("after Forget: sequences %q", got)
		}
	})
}

// TestBindSpellingsNameOneBinding: <1>, <Button-1>, <ButtonPress-1>
// and <Any-Button-1> are one sequence, so binding, querying and
// deleting by any of them reach one binding, which bind lists once and
// a click runs.
func TestBindSpellingsNameOneBinding(t *testing.T) {
	spellings := []string{"<1>", "<Button-1>", "<ButtonPress-1>", "<Any-Button-1>"}
	app, _ := newTestApp(t)
	w := mkWindow(t, app, ".x", 40, 40)
	app.MustEval(`pack append . .x {top}`)
	app.Update()
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+5, ry+5)
	for _, first := range spellings {
		for _, second := range spellings {
			app.MustEval(`bind .x ` + first + ` {lappend hit one}`)
			app.MustEval(`bind .x ` + second + ` {lappend hit two}`)
			if got := app.MustEval(`llength [bind .x]`); got != "1" {
				t.Errorf("%s then %s: bind .x lists %q", first, second, app.MustEval(`bind .x`))
			}
			for _, q := range spellings {
				if got := app.MustEval(`bind .x ` + q); got != "lappend hit two" {
					t.Errorf("%s then %s: bind .x %s = %q", first, second, q, got)
				}
			}
			app.MustEval(`set hit {}`)
			app.Disp.FakeButton(1, true)
			app.Disp.FakeButton(1, false)
			app.Update()
			if got := app.MustEval(`set hit`); got != "two" {
				t.Errorf("%s then %s: a click ran %q, want two", first, second, got)
			}
			app.MustEval(`bind .x ` + first + ` {}`)
			if got := app.MustEval(`bind .x`); got != "" {
				t.Errorf("%s then %s, deleted by %s: bind .x lists %q", first, second, first, got)
			}
		}
	}
}
