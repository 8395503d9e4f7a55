package tcl

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestParseListBasics(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a b c", []string{"a", "b", "c"}},
		{"  a   b  ", []string{"a", "b"}},
		{"{a b} c", []string{"a b", "c"}},
		{"a {b {c d}} e", []string{"a", "b {c d}", "e"}},
		{`"a b" c`, []string{"a b", "c"}},
		{`a\ b c`, []string{"a b", "c"}},
		{"{}", []string{""}},
		{"a\tb\nc", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		got, err := ParseList(c.in)
		if err != nil {
			t.Fatalf("ParseList(%q) error: %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseList(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestParseListErrors(t *testing.T) {
	for _, bad := range []string{"{a", `"unclosed`, "{a}b"} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("ParseList(%q): expected error", bad)
		}
	}
}

func TestQuoteElement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"", "{}"},
		{"two words", "{two words}"},
		{"semi;colon", "{semi;colon}"},
		{"$dollar", "{$dollar}"},
		{"bra[cket", "{bra[cket}"},
	}
	for _, c := range cases {
		if got := QuoteElement(c.in); got != c.want {
			t.Errorf("QuoteElement(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestListRoundTrip property: FormatList then ParseList returns the
// original elements for arbitrary strings.
func TestListRoundTrip(t *testing.T) {
	f := func(elems []string) bool {
		s := FormatList(elems)
		got, err := ParseList(s)
		if err != nil {
			return false
		}
		if len(elems) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, elems)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestListRoundTripHardCases(t *testing.T) {
	hard := [][]string{
		{"a b", "{", "}", "\\", "$x", "[cmd]", "\"q\"", ""},
		{"{unbalanced", "also}bad"},
		{"\n", "\t", " "},
		{"end with backslash\\"},
	}
	for _, elems := range hard {
		s := FormatList(elems)
		got, err := ParseList(s)
		if err != nil {
			t.Fatalf("round trip of %#v: ParseList(%q) error %v", elems, s, err)
		}
		if !reflect.DeepEqual(got, elems) {
			t.Fatalf("round trip of %#v via %q = %#v", elems, s, got)
		}
	}
}

func TestListCommands(t *testing.T) {
	in := New()
	expect(t, in, "list a b c", "a b c")
	expect(t, in, "list {a b} c", "{a b} c")
	expect(t, in, "list", "")
	expect(t, in, "lindex {a b c} 1", "b")
	expect(t, in, "lindex {a b c} end", "c")
	expect(t, in, "lindex {a b c} end-1", "b")
	expect(t, in, "lindex {a b c} 10", "")
	expect(t, in, "index {a b c} 0", "a") // historic alias
	expect(t, in, "llength {a b {c d}}", "3")
	expect(t, in, "llength {}", "0")
	expect(t, in, "lrange {a b c d e} 1 3", "b c d")
	expect(t, in, "lrange {a b c} 0 end", "a b c")
	expect(t, in, "range {a b c} 1 end", "b c") // historic alias
	expect(t, in, "linsert {a c} 1 b", "a b c")
	expect(t, in, "linsert {a b} end c", "a b c")
	expect(t, in, "linsert {a b c} end-1 X", "a b X c") // Tcl 8: end is after the last element
	expect(t, in, "linsert {a b c} end-3 X", "X a b c")
	expect(t, in, "linsert {a b c} -5 X", "X a b c")
	expect(t, in, "linsert {a b c} 7 X", "a b c X")
	expect(t, in, "lreplace {a b c d} 1 2 x y z", "a x y z d")
	expect(t, in, "lreplace {a b c} 0 0", "b c")
	expect(t, in, "lsearch {a b c} b", "1")
	expect(t, in, "lsearch {a b c} z", "-1")
	expect(t, in, "lsearch -glob {apple banana} b*", "1")
	expect(t, in, "lsearch -exact {a* b} a*", "0")
	expect(t, in, "concat {a b} {c d}", "a b c d")
	expect(t, in, "concat a {} b", "a b")
	expect(t, in, "join {a b c} -", "a-b-c")
	expect(t, in, "join {a b c}", "a b c")
	expect(t, in, "split a-b-c -", "a b c")
	expect(t, in, "split a:b,c :,", "a b c")
	expect(t, in, "split abc {}", "a b c")
	expect(t, in, "lsort {pear apple orange}", "apple orange pear")
	expect(t, in, "lsort -integer {10 9 100}", "9 10 100")
	expect(t, in, "lsort -decreasing {a c b}", "c b a")
	expect(t, in, "lsort -real {2.5 1.5 10.1}", "1.5 2.5 10.1")
	evalErr(t, in, "lsort -integer {a b}", "expected integer")
	expect(t, in, "lappend lv a", "a")
	expect(t, in, "lappend lv {b c}", "a {b c}")
	expect(t, in, "llength $lv", "2")
}

func TestListNestedStructures(t *testing.T) {
	in := New()
	// The paper's Lisp comparison: programs have the same form as data.
	evalOK(t, in, "set prog [list set deep 99]")
	expect(t, in, "eval $prog", "99")
	expect(t, in, "set deep", "99")
	// Deep nesting survives round trips.
	evalOK(t, in, "set n {a {b {c {d e}}}}")
	expect(t, in, "lindex [lindex [lindex [lindex $n 1] 1] 1] 1", "e")
}

// TestListCommandsLeaveSlotsAlone: lsort sorts a copy, and linsert and
// lreplace build new lists, so a list a slot keeps still reads as its
// string says.
func TestListCommandsLeaveSlotsAlone(t *testing.T) {
	in := New()
	evalOK(t, in, "set l {c b a}; llength $l")
	expect(t, in, "lsort $l", "a b c")
	expect(t, in, "lindex $l 0", "c")
	expect(t, in, "linsert $l 0 x", "x c b a")
	expect(t, in, "lreplace $l 0 0 z", "z b a")
	expect(t, in, "lrange $l 0 end", "c b a")
	expect(t, in, "join $l -", "c-b-a")
}

// TestAppendKeepsEarlierValues: append and lappend extend the value
// they wrote last in place, and values taken from it earlier, or from a
// variable that holds an equal copy, stay as they were.
func TestAppendKeepsEarlierValues(t *testing.T) {
	in := New()
	evalOK(t, in, "set a x; lappend a y; set b $a; lappend a z; lappend b w")
	expect(t, in, "list $a $b", "{x y z} {x y w}")
	evalOK(t, in, "set c [string range $a 0 end]; append c !; append a ?")
	expect(t, in, "list $a $b $c", "{x y z?} {x y w} {x y z!}")
	evalOK(t, in, "lappend a {p q}; lappend c r; lappend a s")
	expect(t, in, "list $a $c", "{x y z? {p q} s} {x y z! r}")
	expect(t, in, "set b", "x y w")
}

// TestAppendTraces: append and lappend fire one read trace and one write
// trace, and a trace that appends to another variable on the way does
// not disturb the value being built.
func TestAppendTraces(t *testing.T) {
	in := New()
	evalOK(t, in, "proc tr {n i op} {global log; lappend log $n$op}")
	evalOK(t, in, "set log {}; set v a; trace variable v rw tr")
	expect(t, in, "lappend v b", "a b")
	expect(t, in, "append v c", "a bc")
	expect(t, in, "set log", "vr vw vr vw")
	expect(t, in, "lappend fresh x", "x")
}
