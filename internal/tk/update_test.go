package tk

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/xproto"
)

// paintWidget is a widget whose Redraw fills a few rectangles, standing
// in for a canvas whose items changed.
type paintWidget struct {
	win    *Window
	paints int
}

func (p *paintWidget) Redraw() {
	p.paints++
	gc := p.win.App.GC(0x000000, 0xffffff, 1, 0)
	for i := 0; i < 4; i++ {
		p.win.App.Disp.FillRectangle(p.win.XID, gc, 10*i, 10*i, 8, 8)
	}
}

func (p *paintWidget) Destroyed() {}

// TestUpdateOneRoundTripPerRedraw pins Tk's update order: the idle
// redraw runs before the sync, so its requests and the sync travel in
// one flush and the update costs one round trip.
func TestUpdateOneRoundTripPerRedraw(t *testing.T) {
	app, _ := newTestApp(t)
	w := mkWindow(t, app, ".c", 100, 100)
	pw := &paintWidget{win: w}
	w.Widget = pw
	app.MustEval("pack append . .c {top}")
	app.Update()

	m := app.Metrics()
	rtts := m.Counter("roundtrips").Value()
	flushes := m.Histogram("flush.batch").Snapshot().Count
	paints := pw.paints
	w.ScheduleRedraw()
	app.Update()
	if got := m.Counter("roundtrips").Value() - rtts; got != 1 {
		t.Errorf("update after a redraw made %d round trips, want 1", got)
	}
	if got := m.Histogram("flush.batch").Snapshot().Count - flushes; got != 1 {
		t.Errorf("update after a redraw made %d flushes, want 1", got)
	}
	if got := pw.paints - paints; got != 1 {
		t.Errorf("update painted %d times, want 1", got)
	}
}

// TestUpdateDispatchesIdleHandlersEvents pins Update's contract: an
// event caused by a request an idle handler sent has been dispatched
// when Update returns.
func TestUpdateDispatchesIdleHandlersEvents(t *testing.T) {
	app, _ := newTestApp(t)
	w := mkWindow(t, app, ".w", 20, 20)
	app.Update()
	mapped := 0
	w.AddEventHandler(xproto.StructureNotifyMask, func(ev *xproto.Event) {
		if ev.Type == xproto.MapNotify {
			mapped++
		}
	})
	app.DoWhenIdle(w.Map)
	app.Update()
	if mapped != 1 {
		t.Fatalf("MapNotify caused by an idle handler dispatched %d times before Update returned, want 1", mapped)
	}
}

// TestDestroySendsOneRequestPerXSubtree: destroying a mapped frame of
// 50 mapped buttons and a mapped top-level sends DestroyWindow for the
// frame and the top-level only, since the server destroys X children
// with their parent, and leaves neither on the server.
func TestDestroySendsOneRequestPerXSubtree(t *testing.T) {
	app, _ := newTestApp(t)
	f := mkWindow(t, app, ".f", 100, 100)
	f.Map()
	for i := 0; i < 50; i++ {
		b, err := app.CreateWindow(".f.b"+strconv.Itoa(i), "Button")
		if err != nil {
			t.Fatal(err)
		}
		b.Map()
	}
	top, err := app.CreateTopLevel(".f.top", "Toplevel")
	if err != nil {
		t.Fatal(err)
	}
	top.Map()
	app.Update()

	destroys := app.Metrics().Counter("requests.DestroyWindow")
	before := destroys.Value()
	app.MustEval("destroy .f")
	app.Update()
	if got := destroys.Value() - before; got != 2 {
		t.Errorf("destroy .f sent %d DestroyWindow requests, want 2", got)
	}
	d := app.Disp
	for _, parent := range []xproto.ID{d.Root, app.Main.XID} {
		tree, err := d.QueryTree(parent)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(tree.Children, f.XID) || slices.Contains(tree.Children, top.XID) {
			t.Errorf("window %d still lists a destroyed window among its children %v", parent, tree.Children)
		}
	}
	if len(app.Main.Children) != 0 || app.WindowExists(".f.top") {
		t.Errorf("toolkit bookkeeping kept destroyed windows: %d children of .", len(app.Main.Children))
	}
}
