package tk

import (
	"strings"
	"testing"

	"repro/internal/xproto"
)

// FuzzBindSequence binds any sequence and script in a binding table. No
// method of the table panics, nor does %-substitution of the script. A
// sequence the table rejects leaves the object's bindings as they were,
// and CheckSequence rejects it too; one it accepts can be queried and
// then deleted, which leaves the object with no sequences.
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
		if _, _, err := bt.Bind("old", []string{"<Enter>", "prior"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := bt.Bind("old", []string{seq, script}); err != nil {
			if CheckSequence(seq) == nil {
				t.Fatalf("Bind rejects %q (%v), CheckSequence accepts it", seq, err)
			}
			if got := query("old"); got != "<Enter>" {
				t.Fatalf("rejected %q: sequences %q, want <Enter>", seq, got)
			}
			if got := query("old", "<Enter>"); got != "prior" {
				t.Fatalf("rejected %q: <Enter> runs %q, want prior", seq, got)
			}
			return
		}
		if err := CheckSequence(seq); err != nil {
			t.Fatalf("Bind accepts %q, CheckSequence rejects it: %v", seq, err)
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
