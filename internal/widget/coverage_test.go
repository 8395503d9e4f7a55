package widget_test

import (
	"strings"
	"testing"
)

// TestLabelBitmap renders a built-in bitmap (§3.3's textual bitmap
// names).
func TestLabelBitmap(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`label .l -bitmap gray50 -foreground black -background white`)
	app.MustEval(`pack append . .l {top}`)
	app.Update()
	w, _ := app.NameToWindow(".l")
	// gray50 is 8x8 plus padding.
	if w.ReqWidth < 8 || w.ReqHeight < 8 {
		t.Fatalf("bitmap label request %dx%d", w.ReqWidth, w.ReqHeight)
	}
	shot, _ := app.Disp.Screenshot(w.XID)
	black := 0
	for i := 0; i+2 < len(shot.Pixels); i += 3 {
		if shot.Pixels[i] == 0 && shot.Pixels[i+1] == 0 && shot.Pixels[i+2] == 0 {
			black++
		}
	}
	// A 50% stipple of an 8x8 area: 32 pixels.
	if black < 20 {
		t.Fatalf("bitmap rendered %d black pixels", black)
	}
	// The star bitmap and gray25 also resolve.
	app.MustEval(`label .s -bitmap star`)
	app.MustEval(`label .q -bitmap gray25`)
	// Unknown bitmaps fail.
	if _, err := app.Eval(`label .bad -bitmap nosuchbitmap`); err == nil {
		t.Fatal("unknown bitmap should fail")
	}
}

func TestCursorOption(t *testing.T) {
	app, _ := newApp(t)
	// The paper's §3.3 example: a cursor named by text.
	app.MustEval(`button .b -text X -cursor coffee_mug`)
	app.Update()
	// Cached on second use: no error and no growth surprises.
	app.MustEval(`button .b2 -text Y -cursor coffee_mug`)
	_, _, _, cursors := app.CacheStats()
	if cursors != 1 {
		t.Fatalf("cursor cache has %d entries, want 1 (shared)", cursors)
	}
}

func TestRaiseLowerCommands(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`frame .a -width 50 -height 50`)
	app.MustEval(`frame .b -width 50 -height 50`)
	app.MustEval(`pack append . .a {top} .b {top}`)
	app.Update()
	app.MustEval(`raise .a`)
	app.MustEval(`lower .a`)
	if _, err := app.Eval(`raise .nosuch`); err == nil {
		t.Fatal("raise of missing window should fail")
	}
}

func TestEntrySelectRange(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`entry .e`)
	app.MustEval(`pack append . .e {top}`)
	app.MustEval(`.e insert 0 "hello world"`)
	app.MustEval(`.e select range 0 5`)
	app.Update()
	// The entry's selection is the X selection now.
	if got := app.MustEval(`selection get`); got != "hello" {
		t.Fatalf("entry selection = %q", got)
	}
	if got := app.MustEval(`.e index sel.first`); got != "0" {
		t.Fatalf("sel.first = %q", got)
	}
	if got := app.MustEval(`.e index sel.last`); got != "5" {
		t.Fatalf("sel.last = %q", got)
	}
	app.MustEval(`.e select clear`)
	if _, err := app.Eval(`.e index sel.first`); err == nil {
		t.Fatal("sel.first without selection should fail")
	}
}

func TestFrameMessageRejectSubcommands(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`frame .f`)
	app.MustEval(`message .m -text hi`)
	if _, err := app.Eval(`.f flash`); err == nil {
		t.Fatal("frame subcommand should fail")
	}
	if _, err := app.Eval(`.m invoke`); err == nil {
		t.Fatal("message subcommand should fail")
	}
}

func TestMenubuttonPostUnpostCommands(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`menubutton .mb -text File -menu .m`)
	app.MustEval(`menu .m`)
	app.MustEval(`.m add command -label One`)
	app.MustEval(`pack append . .mb {top}`)
	app.Update()
	app.MustEval(`.mb post`)
	app.Update()
	m, _ := app.NameToWindow(".m")
	if !m.Mapped {
		t.Fatal("menu not posted")
	}
	app.MustEval(`.mb unpost`)
	app.Update()
	if m.Mapped {
		t.Fatal("menu not unposted")
	}
	if _, err := app.Eval(`.mb bogus`); err == nil {
		t.Fatal("bad menubutton subcommand should fail")
	}
}

func TestScrollbarGetAndErrors(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`scrollbar .s`)
	if got := app.MustEval(`.s get`); got != "1 1 0 0" {
		t.Fatalf("initial get = %q", got)
	}
	if _, err := app.Eval(`.s set 1 2 3`); err == nil {
		t.Fatal("wrong arity set should fail")
	}
	if _, err := app.Eval(`.s set a b c d`); err == nil {
		t.Fatal("non-integer set should fail")
	}
	if _, err := app.Eval(`.s scrollme`); err == nil {
		t.Fatal("bad subcommand should fail")
	}
	// Horizontal orientation geometry.
	app.MustEval(`scrollbar .h -orient horizontal -length 150 -width 12`)
	app.MustEval(`pack append . .h {top}`)
	app.Update()
	h, _ := app.NameToWindow(".h")
	if h.ReqWidth != 150 || h.ReqHeight != 12 {
		t.Fatalf("horizontal scrollbar req %dx%d", h.ReqWidth, h.ReqHeight)
	}
}

func TestListboxErrors(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`listbox .l`)
	if _, err := app.Eval(`.l get 0`); err == nil {
		t.Fatal("get from empty listbox should fail")
	}
	if _, err := app.Eval(`.l insert notanindex x`); err == nil {
		t.Fatal("bad index should fail")
	}
	if _, err := app.Eval(`.l view`); err == nil {
		t.Fatal("view without index should fail")
	}
	app.MustEval(`.l insert end only`)
	if got := app.MustEval(`.l nearest 5`); got != "0" {
		t.Fatalf("nearest = %q", got)
	}
	if got := app.MustEval(`.l curselection`); got != "" {
		t.Fatalf("curselection with no selection = %q", got)
	}
}

func TestConfigureRelief(t *testing.T) {
	app, _ := newApp(t)
	for _, relief := range []string{"flat", "raised", "sunken", "groove", "ridge"} {
		app.MustEval(`frame .f` + relief + ` -relief ` + relief + ` -width 30 -height 30 -borderwidth 4`)
		app.MustEval(`pack append . .f` + relief + ` {top}`)
	}
	app.Update() // renders every relief style without error
	shot, err := app.Disp.Screenshot(app.Main.XID)
	if err != nil || len(shot.Pixels) == 0 {
		t.Fatalf("screenshot: %v", err)
	}
}

func TestWinfoManagerAndGeometry(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`frame .f -width 40 -height 30`)
	app.MustEval(`pack append . .f {top}`)
	app.Update()
	if got := app.MustEval(`winfo manager .f`); got != "pack" {
		t.Fatalf("manager = %q", got)
	}
	if got := app.MustEval(`winfo geometry .f`); !strings.HasPrefix(got, "40x30") {
		t.Fatalf("geometry = %q", got)
	}
}

// TestNumbersParseAsWholeWords: an index or a geometry with junk after
// its digits is rejected, not read up to the first non-digit.
func TestNumbersParseAsWholeWords(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`listbox .lb; .lb insert end a b c; menu .mn; .mn add command -label zero`)
	for _, script := range []string{
		`.lb get 1x`,
		`.lb delete 2junk`,
		`.mn entrylabel 0zz`,
		`wm geometry . 100x200junk`,
		`wm geometry . +5+6junk`,
		`listbox .lb2 -geometry 10x5junk`,
		`frame .f -geometry 30x40junk`,
	} {
		if res, err := app.Eval(script); err == nil {
			t.Errorf("%q returned %q, want an error", script, res)
		}
	}
	if got := app.MustEval(`.lb size`); got != "3" {
		t.Errorf("the listbox holds %s items, want 3", got)
	}
}
