package xclient_test

import (
	"testing"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

func TestPointerQueriesAndWrappers(t *testing.T) {
	_, d := newPair(t)
	d.WarpPointer(123, 45)
	qp, err := d.QueryPointer()
	if err != nil || qp.X != 123 || qp.Y != 45 {
		t.Fatalf("QueryPointer = %+v %v", qp, err)
	}
	// Button state shows in the pointer query.
	d.FakeButton(2, true)
	qp, _ = d.QueryPointer()
	if qp.State&xproto.Button2Mask == 0 {
		t.Fatalf("button 2 state missing: %#x", qp.State)
	}
	d.FakeButton(2, false)
}

func TestWindowAttributeWrappers(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 40, 40, 1, xclient.WindowAttributes{})
	d.SetWindowBackground(w, 0x112233)
	d.SetWindowBorder(w, 0x445566)
	d.SetBorderWidth(w, 3)
	d.MoveWindow(w, 9, 9)
	d.LowerWindow(w)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	geo, _ := d.GetGeometry(w)
	if geo.BorderWidth != 3 || geo.X != 9 {
		t.Fatalf("geometry = %+v", geo)
	}
	cursor := d.CreateCursor("watch")
	d.SetWindowCursor(w, cursor)
	d.Bell()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestDeletePropertyNotifies(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{
		EventMask: xproto.PropertyChangeMask,
	})
	prop, _ := d.InternAtom("GONE")
	d.ChangeProperty(w, prop, xproto.AtomString, []byte("x"))
	d.DeleteProperty(w, prop)
	d.Flush()
	ev := waitEvent(t, d, "PropertyNotify deleted", func(ev xproto.Event) bool {
		return ev.Type == xproto.PropertyNotify && ev.PropState == xproto.PropertyDeleted
	})
	if ev.Atom != prop {
		t.Fatalf("deleted atom = %d", ev.Atom)
	}
}

func TestPixmapDrawing(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 40, 40, 0, xclient.WindowAttributes{Background: 0xffffff})
	d.MapWindow(w)
	d.ClearWindow(w)
	// Draw into an off-screen pixmap, then copy to the window (double
	// buffering, as widgets could do).
	pm := d.CreatePixmap(40, 40)
	gcW := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0xffffff})
	gcB := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0x0000ff})
	d.FillRectangle(pm, gcW, 0, 0, 40, 40)
	d.FillRectangle(pm, gcB, 10, 10, 20, 20)
	d.CopyArea(pm, w, gcB, 0, 0, 0, 0, 40, 40)
	shot, err := d.Screenshot(w)
	if err != nil {
		t.Fatal(err)
	}
	yOff := int(shot.Height) - 40
	i := ((20+yOff)*int(shot.Width) + 20) * 3
	if shot.Pixels[i] != 0 || shot.Pixels[i+2] != 0xff {
		t.Fatalf("pixmap copy: pixel = %v", shot.Pixels[i:i+3])
	}
	d.FreePixmap(pm)
	d.FreeGC(gcW)
	d.FreeGC(gcB)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestFontLifecycle(t *testing.T) {
	_, d := newPair(t)
	f, err := d.OpenFont("6x13")
	if err != nil {
		t.Fatal(err)
	}
	if f.LineHeight() != 10 {
		t.Fatalf("line height = %d", f.LineHeight())
	}
	// Non-ASCII counts as the fallback glyph width.
	if f.TextWidth("\xff") == 0 {
		t.Fatal("fallback width")
	}
	d.CloseFont(f)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Using a closed font in QueryFont errors.
	var rep xproto.QueryFontReply
	if err := d.RoundTrip(&xproto.QueryFontReq{Fid: f.ID}, func(r *xproto.Reader) { rep.Decode(r) }); err == nil {
		t.Fatal("QueryFont on closed font should fail")
	}
}

func TestDrawingPrimitiveWrappers(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 60, 60, 0, xclient.WindowAttributes{Background: 0xffffff})
	d.MapWindow(w)
	d.ClearWindow(w)
	gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground | xproto.GCLineWidth, Foreground: 0xff00ff, LineWidth: 2})
	d.DrawLine(w, gc, 0, 0, 59, 59)
	d.DrawLines(w, gc, []xproto.Point{{X: 0, Y: 59}, {X: 59, Y: 0}})
	d.DrawRectangle(w, gc, 5, 5, 50, 50)
	d.FillPolygon(w, gc, []xproto.Point{{X: 30, Y: 10}, {X: 50, Y: 50}, {X: 10, Y: 50}})
	d.ClearArea(w, 0, 0, 5, 5)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	shot, _ := d.Screenshot(w)
	magenta := 0
	for i := 0; i+2 < len(shot.Pixels); i += 3 {
		if shot.Pixels[i] == 0xff && shot.Pixels[i+1] == 0 && shot.Pixels[i+2] == 0xff {
			magenta++
		}
	}
	if magenta < 100 {
		t.Fatalf("primitives drew %d magenta pixels", magenta)
	}
}

func TestServerStatsCounter(t *testing.T) {
	srv, d := newPair(t)
	requests := srv.Metrics().Counter("requests")
	before := requests.Value()
	bellsBefore := srv.Metrics().Counter("requests.Bell").Value()
	for i := 0; i < 10; i++ {
		d.Bell()
	}
	d.Sync()
	if requests.Value()-before < 10 {
		t.Fatalf("server requests grew by %d", requests.Value()-before)
	}
	// The registry also breaks traffic down per opcode.
	if got := srv.Metrics().Counter("requests.Bell").Value() - bellsBefore; got != 10 {
		t.Fatalf("server counted %d Bell requests, want 10", got)
	}
	// The client saw the same traffic from its side.
	if got := d.Metrics().Counter("requests.Bell").Value(); got < 10 {
		t.Fatalf("client counted %d Bell requests, want ≥ 10", got)
	}
	// Dispatch service times were recorded for every request. The
	// histogram is observed after the reply is enqueued, so the very
	// last request's observation may still be in flight.
	reqs := requests.Value()
	h := srv.Metrics().Histograms()["dispatch"]
	if h.Count < reqs-1 || h.Count > reqs {
		t.Fatalf("dispatch histogram count %d, want %d or %d", h.Count, reqs-1, reqs)
	}
}
