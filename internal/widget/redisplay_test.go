package widget

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tk"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// newTkApp builds an application with every widget command on a private
// server, for tests that need the package's internals.
func newTkApp(t *testing.T) *tk.App {
	t.Helper()
	srv := xserver.New(1024, 768)
	t.Cleanup(srv.Close)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	app, err := tk.NewApp(d, tk.Config{Name: "redisplay"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Destroy)
	Register(app)
	return app
}

// screenshot returns a window's pixels.
func screenshot(t *testing.T, app *tk.App, w *tk.Window) []byte {
	t.Helper()
	shot, err := app.Disp.Screenshot(w.XID)
	if err != nil {
		t.Fatal(err)
	}
	return shot.Pixels
}

// TestUnmappedButtonsPaintOnceWhenMapped: buttons packed into a frame
// that is not yet mapped draw nothing; mapping the frame exposes them,
// and each then draws its label once.
func TestUnmappedButtonsPaintOnceWhenMapped(t *testing.T) {
	app := newTkApp(t)
	app.Update()
	texts := app.Metrics().Counter("requests.PolyText8")
	before := texts.Value()
	app.MustEval("frame .f")
	for i := 0; i < 5; i++ {
		app.MustEval(fmt.Sprintf("button .f.b%d -text label%d\npack append .f .f.b%d {top fillx}", i, i, i))
	}
	app.Update()
	if got := texts.Value() - before; got != 0 {
		t.Fatalf("buttons in an unmapped frame sent %d PolyText8, want 0", got)
	}
	app.MustEval("pack append . .f {top}")
	app.Update()
	if got := texts.Value() - before; got != 5 {
		t.Fatalf("mapping the frame of 5 buttons sent %d PolyText8, want 5", got)
	}
}

// draw3DBorderPerRect is the reference border: one request per strip,
// top-left shade then bottom-right shade for each ring, with the border
// width clamped as draw3DBorder clamps it.
func draw3DBorderPerRect(b *base, x, y, w, h, bw int, bg uint32, relief string) {
	bw = min(bw, w/2, h/2)
	if bw <= 0 || relief == "flat" {
		return
	}
	d := b.app.Disp
	light := shade(bg, 1.4)
	dark := shade(bg, 0.6)
	top, bottom := light, dark
	switch relief {
	case "sunken", "groove":
		top, bottom = dark, light
	}
	gcTop := b.app.GC(top, bg, 1, b.fontID())
	gcBottom := b.app.GC(bottom, bg, 1, b.fontID())
	half := bw
	if relief == "groove" || relief == "ridge" {
		half = max(bw/2, 1)
	}
	for i := 0; i < half; i++ {
		d.FillRectangle(b.win.XID, gcTop, x+i, y+i, w-2*i, 1)
		d.FillRectangle(b.win.XID, gcTop, x+i, y+i, 1, h-2*i)
		d.FillRectangle(b.win.XID, gcBottom, x+i, y+h-1-i, w-2*i, 1)
		d.FillRectangle(b.win.XID, gcBottom, x+w-1-i, y+i, 1, h-2*i)
	}
	for i := half; i < bw; i++ {
		d.FillRectangle(b.win.XID, gcBottom, x+i, y+i, w-2*i, 1)
		d.FillRectangle(b.win.XID, gcBottom, x+i, y+i, 1, h-2*i)
		d.FillRectangle(b.win.XID, gcTop, x+i, y+h-1-i, w-2*i, 1)
		d.FillRectangle(b.win.XID, gcTop, x+w-1-i, y+i, 1, h-2*i)
	}
}

// TestBorderBatchedMatchesPerRect: the batched border paints the same
// pixels as the per-strip reference for every relief, border widths 1-4
// and sizes 1-12 in each dimension, in two requests.
func TestBorderBatchedMatchesPerRect(t *testing.T) {
	app := newTkApp(t)
	const cell, sizes = 14, 12
	mk := func(path string) *base {
		win, err := app.CreateWindow(path, "Frame")
		if err != nil {
			t.Fatal(err)
		}
		win.GeometryRequest(cell*sizes, cell*sizes)
		app.MustEval("pack append . " + path + " {left}")
		return &base{app: app, win: win}
	}
	ref, got := mk(".ref"), mk(".got")
	app.Update()
	const bg = 0x8899aa
	fills := app.Metrics().Counter("requests.PolyFillRectangle")
	for _, relief := range []string{"raised", "sunken", "groove", "ridge", "flat"} {
		for bw := 1; bw <= 4; bw++ {
			for _, b := range []*base{ref, got} {
				app.Disp.FillRectangle(b.win.XID, app.GC(0xffffff, 0xffffff, 1, 0), 0, 0, cell*sizes, cell*sizes)
			}
			for w := 1; w <= sizes; w++ {
				for h := 1; h <= sizes; h++ {
					x, y := (w-1)*cell+1, (h-1)*cell+1
					draw3DBorderPerRect(ref, x, y, w, h, bw, bg, relief)
					before := fills.Value()
					got.draw3DBorder(x, y, w, h, bw, bg, relief)
					want := uint64(2)
					if relief == "flat" || min(w, h) < 2 {
						want = 0
					}
					if n := fills.Value() - before; n != want {
						t.Errorf("%s border %d on %dx%d sent %d fill requests, want %d", relief, bw, w, h, n, want)
					}
				}
			}
			if !bytes.Equal(screenshot(t, app, ref.win), screenshot(t, app, got.win)) {
				t.Errorf("%s border width %d: batched border pixels differ from the per-strip reference", relief, bw)
			}
		}
	}
}

// TestTextPartialRepaintMatchesFull types a seeded key sequence into a
// tagged text widget: arrows, letters, Return, and BackSpace joins at
// the first and last visible rows, scrolled and not, with an occasional
// join across the top edge by the delete command. After every step the
// widget, repainted only where the step changed it, must look exactly
// as it does after a forced full repaint.
func TestTextPartialRepaintMatchesFull(t *testing.T) {
	app := newTkApp(t)
	app.MustEval(`text .t -width 40 -height 8 -relief sunken -borderwidth 2
pack append . .t {top}
focus .t
.t tag configure heading -foreground firebrick -underline 1
.t tag configure keyword -background lightyellow`)
	for i := 1; i <= 14; i++ {
		app.MustEval(fmt.Sprintf(`.t insert end "line %d of the document, with some words\n"`, i))
	}
	app.MustEval(`.t tag add heading 1.0 1.end
.t tag add heading 5.3 6.8
.t tag add keyword 2.5 4.12
.t tag add keyword 9.0 9.end
.t mark set insert 1.0`)
	app.Update()
	win, err := app.NameToWindow(".t")
	if err != nil {
		t.Fatal(err)
	}
	tx := win.Widget.(*Text)
	texts := app.Metrics().Counter("requests.PolyText8")

	rng := rand.New(rand.NewSource(1))
	keys := []xproto.Keysym{xproto.KsLeft, xproto.KsRight, xproto.KsUp, xproto.KsDown, xproto.KsReturn, xproto.KsBackSpace, 'a', 'q', 'z'}
	var partialTexts, fullTexts uint64
	for k := 0; k < 400; k++ {
		switch rng.Intn(12) {
		case 0:
			// A BackSpace join at the first visible row.
			app.MustEval(fmt.Sprintf(".t mark set insert %d.0", tx.topLine+1))
		case 1:
			// A BackSpace join at the last visible row.
			app.MustEval(fmt.Sprintf(".t mark set insert %d.0", tx.topLine+tx.visibleLines()))
		case 2:
			app.MustEval(fmt.Sprintf(".t yview %d", rng.Intn(4)))
			app.Update()
		case 3:
			// A join across the top edge, which keys cannot make since
			// they keep the cursor in view: the damage starts above it.
			if tx.topLine == 0 {
				break
			}
			app.MustEval(fmt.Sprintf(".t delete %d.end %d.0", tx.topLine, tx.topLine+1))
			app.Update()
			partial := screenshot(t, app, win)
			tx.redrawAll()
			app.Update()
			if full := screenshot(t, app, win); !bytes.Equal(partial, full) {
				t.Fatalf("step %d (top line %d): a join across the top edge, repainted partially, differs from a full repaint", k, tx.topLine+1)
			}
		}
		ks := keys[rng.Intn(len(keys))]
		if rng.Intn(12) < 2 {
			ks = xproto.KsBackSpace
		}
		before := texts.Value()
		app.Disp.FakeKey(ks, true)
		app.Disp.FakeKey(ks, false)
		app.Update()
		partialTexts += texts.Value() - before
		partial := screenshot(t, app, win)

		before = texts.Value()
		tx.redrawAll()
		app.Update()
		fullTexts += texts.Value() - before
		if full := screenshot(t, app, win); !bytes.Equal(partial, full) {
			t.Fatalf("key %d (%s, cursor %d.%d, top line %d): partial repaint differs from a full repaint",
				k, xproto.KeysymName(ks), tx.curLine+1, tx.curChar, tx.topLine+1)
		}
	}
	if partialTexts*2 > fullTexts {
		t.Errorf("keys sent %d PolyText8 against %d for full repaints; partial repaints should send far fewer", partialTexts, fullTexts)
	}
}

// TestTextKeysKeepCursorInView checks that a key scrolls the insertion
// cursor into view: not at all while its line is visible, and by the
// least amount otherwise.
func TestTextKeysKeepCursorInView(t *testing.T) {
	app := newTkApp(t)
	app.MustEval(`text .t -width 20 -height 6
pack append . .t {top}
focus .t`)
	for i := 1; i <= 30; i++ {
		app.MustEval(fmt.Sprintf(`.t insert end "line %d\n"`, i))
	}
	app.MustEval(".t mark set insert 1.0")
	app.Update()
	win, err := app.NameToWindow(".t")
	if err != nil {
		t.Fatal(err)
	}
	tx := win.Widget.(*Text)
	rows := tx.visibleLines()
	key := func(ks xproto.Keysym, wantTop int) {
		t.Helper()
		app.Disp.FakeKey(ks, true)
		app.Disp.FakeKey(ks, false)
		app.Update()
		if tx.topLine != wantTop {
			t.Fatalf("after %s with the cursor on line %d, the top line is %d, want %d",
				xproto.KeysymName(ks), tx.curLine+1, tx.topLine+1, wantTop+1)
		}
	}
	for i := 1; i < rows; i++ {
		key(xproto.KsDown, 0)
	}
	key(xproto.KsDown, 1)   // one past the bottom edge
	key(xproto.KsReturn, 2) // a new line past the bottom edge
	key(xproto.KsBackSpace, 2)
	for line := tx.curLine; line > 2; line-- {
		key(xproto.KsUp, 2)
	}
	key(xproto.KsUp, 1) // one past the top edge
	app.MustEval(".t mark set insert 21.0")
	if tx.topLine != 1 {
		t.Fatalf("mark set insert scrolled the view to line %d", tx.topLine+1)
	}
	key(xproto.KsRight, 20-rows+1)
}
