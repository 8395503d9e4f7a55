package widget_test

import (
	"strings"
	"testing"
)

func TestCanvasCreateAndQuery(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c -width 200 -height 150`)
	app.MustEval(`pack append . .c {top}`)
	app.Update()

	id1 := app.MustEval(`.c create rectangle 10 10 50 40 -fill red`)
	id2 := app.MustEval(`.c create line 0 0 100 100 -width 2`)
	id3 := app.MustEval(`.c create text 60 60 -text "hello" -tags {label greeting}`)
	if id1 != "1" || id2 != "2" || id3 != "3" {
		t.Fatalf("ids = %s %s %s", id1, id2, id3)
	}
	if got := app.MustEval(`.c coords 1`); got != "10 10 50 40" {
		t.Fatalf("coords = %q", got)
	}
	if got := app.MustEval(`.c gettags 3`); got != "label greeting" {
		t.Fatalf("gettags = %q", got)
	}
	if got := app.MustEval(`.c find withtag label`); got != "3" {
		t.Fatalf("find withtag = %q", got)
	}
	if got := app.MustEval(`.c find closest 12 12`); got != "1" {
		t.Fatalf("find closest = %q", got)
	}
}

func TestCanvasMoveAndDelete(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create rectangle 10 10 30 30 -tags box`)
	app.MustEval(`.c move box 5 -3`)
	if got := app.MustEval(`.c coords box`); got != "15 7 35 27" {
		t.Fatalf("after move: %q", got)
	}
	app.MustEval(`.c coords box 0 0 10 10`)
	if got := app.MustEval(`.c coords box`); got != "0 0 10 10" {
		t.Fatalf("after coords set: %q", got)
	}
	app.MustEval(`.c delete box`)
	if got := app.MustEval(`.c find withtag all`); got != "" {
		t.Fatalf("after delete: %q", got)
	}
}

func TestCanvasItemConfigure(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c`)
	app.MustEval(`.c create oval 10 10 60 40 -fill blue -tags dot`)
	app.MustEval(`.c itemconfigure dot -fill green -width 3`)
	// Unknown options and bad colors error.
	if _, err := app.Eval(`.c itemconfigure dot -bogus 1`); err == nil {
		t.Fatal("bogus item option should fail")
	}
	if _, err := app.Eval(`.c itemconfigure dot -fill NotAColor`); err == nil {
		t.Fatal("bad fill color should fail")
	}
}

func TestCanvasItemBindings(t *testing.T) {
	// The §6 hypertext mechanism: Tcl commands associated with pieces of
	// text or graphics, executed on click.
	app, _ := newApp(t)
	app.MustEval(`canvas .c -width 200 -height 150`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create text 20 20 -text "a link" -tags link`)
	app.MustEval(`.c bind link <Button-1> {set followed "at %x %y"}`)
	app.Update()

	w, _ := app.NameToWindow(".c")
	rx, ry := w.RootCoords()
	// Click on the text item.
	click(app, rx+25, ry+25)
	got := app.MustEval(`set followed`)
	if !strings.HasPrefix(got, "at ") {
		t.Fatalf("binding result = %q", got)
	}
	// Clicking empty canvas space does nothing.
	app.MustEval(`set followed none`)
	click(app, rx+150, ry+120)
	if got := app.MustEval(`set followed`); got != "none" {
		t.Fatalf("empty click fired binding: %q", got)
	}
	// Query and delete the binding.
	if app.MustEval(`.c bind link <Button-1>`) == "" {
		t.Fatal("binding query")
	}
	app.MustEval(`.c bind link <Button-1> {}`)
	if app.MustEval(`.c bind link <Button-1>`) != "" {
		t.Fatal("binding delete")
	}
}

// TestCanvasBindAll: "all" is a tag of every item, so a binding on it
// fires for an item with no binding of its own, and an item's own
// binding wins over it, as the first object with a match runs.
func TestCanvasBindAll(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c -width 200 -height 150`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create rectangle 10 10 50 50`)
	app.MustEval(`.c create rectangle 100 10 140 50`)
	app.MustEval(`.c bind all <1> {lappend hit all}`)
	app.MustEval(`.c bind 2 <1> {lappend hit item}`)
	app.Update()
	w, _ := app.NameToWindow(".c")
	rx, ry := w.RootCoords()
	for _, c := range []struct {
		x    int
		want string
	}{{30, "all"}, {120, "item"}} {
		app.MustEval(`set hit {}`)
		click(app, rx+c.x, ry+30)
		if got := app.MustEval(`set hit`); got != c.want {
			t.Errorf("click at x=%d ran %q, want %q", c.x, got, c.want)
		}
	}
}

func TestCanvasEnterLeaveItems(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c -width 200 -height 150`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create rectangle 10 10 50 50 -tags r`)
	app.MustEval(`set log {}`)
	app.MustEval(`.c bind r <Enter> {lappend log enter}`)
	app.MustEval(`.c bind r <Leave> {lappend log leave}`)
	app.Update()
	w, _ := app.NameToWindow(".c")
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+20, ry+20) // onto the item
	app.Update()
	app.Disp.WarpPointer(rx+150, ry+100) // off the item, still in canvas
	app.Update()
	if got := app.MustEval(`set log`); got != "enter leave" {
		t.Fatalf("enter/leave log = %q", got)
	}
}

func TestCanvasRaise(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create rectangle 10 10 50 50 -tags bottom`)
	app.MustEval(`.c create rectangle 10 10 50 50 -tags top`)
	app.Update()
	// Topmost item at a point wins for picking; raise changes it.
	if got := app.MustEval(`.c find closest 20 20`); got != "1" {
		// closest uses centers; both tie, first wins.
		t.Logf("closest = %s", got)
	}
	app.MustEval(`set hit {}`)
	app.MustEval(`.c bind bottom <Button-1> {set hit bottom}`)
	app.MustEval(`.c bind top <Button-1> {set hit top}`)
	app.Update()
	w, _ := app.NameToWindow(".c")
	rx, ry := w.RootCoords()
	click(app, rx+20, ry+20)
	if got := app.MustEval(`set hit`); got != "top" {
		t.Fatalf("topmost pick = %q", got)
	}
	app.MustEval(`.c raise bottom`)
	click(app, rx+20, ry+20)
	if got := app.MustEval(`set hit`); got != "bottom" {
		t.Fatalf("after raise, pick = %q", got)
	}
}

func TestCanvasRendering(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c -width 100 -height 100 -background white`)
	app.MustEval(`pack append . .c {top}`)
	app.MustEval(`.c create rectangle 20 20 80 80 -fill red`)
	app.Update()
	shot, err := app.Disp.Screenshot(app.Main.XID)
	if err != nil {
		t.Fatal(err)
	}
	red := 0
	for i := 0; i+2 < len(shot.Pixels); i += 3 {
		if shot.Pixels[i] == 0xff && shot.Pixels[i+1] == 0 && shot.Pixels[i+2] == 0 {
			red++
		}
	}
	if red < 3000 { // 60x60 = 3600 expected
		t.Fatalf("rectangle rendered %d red pixels", red)
	}
}

func TestCanvasErrors(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`canvas .c`)
	for _, bad := range []string{
		`.c create hexagon 1 2 3 4`,
		`.c create rectangle 1 2 3`,
		`.c create text 1`,
		`.c create polygon 1 2 3 4`,
		`.c create line one two`,
		`.c move all x y`,
		`.c nosuchsubcommand`,
	} {
		if _, err := app.Eval(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}
