package xclient_test

import (
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// newPair starts a server and returns a connected display.
func newPair(t *testing.T) (*xserver.Server, *xclient.Display) {
	t.Helper()
	srv := xserver.New(800, 600)
	t.Cleanup(srv.Close)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(d.Close)
	return srv, d
}

// waitEvent pulls events until one matches pred or the timeout expires.
func waitEvent(t *testing.T, d *xclient.Display, what string, pred func(ev xproto.Event) bool) xproto.Event {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		ev, ok, lost := d.PollEvent()
		if ok {
			if pred(ev) {
				return ev
			}
			continue
		}
		if lost {
			t.Fatalf("waiting for %s: connection closed", what)
		}
		select {
		case <-d.Wake():
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitLost drains d's events until it reports the connection lost.
func waitLost(t *testing.T, d *xclient.Display) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		_, ok, lost := d.PollEvent()
		if lost {
			return
		}
		if ok {
			continue
		}
		select {
		case <-d.Wake():
		case <-deadline:
			t.Fatal("client never noticed connection loss")
		}
	}
}

func TestConnectionSetup(t *testing.T) {
	_, d := newPair(t)
	if d.Root != 1 {
		t.Fatalf("root = %d, want 1", d.Root)
	}
	if d.Width != 800 || d.Height != 600 {
		t.Fatalf("screen = %dx%d, want 800x600", d.Width, d.Height)
	}
	if d.NewID() == 0 {
		t.Fatal("NewID returned 0")
	}
}

func TestCreateWindowAndGeometry(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 10, 20, 300, 200, 2, xclient.WindowAttributes{Background: 0xffffff})
	geo, err := d.GetGeometry(w)
	if err != nil {
		t.Fatalf("GetGeometry: %v", err)
	}
	if geo.X != 10 || geo.Y != 20 || geo.Width != 300 || geo.Height != 200 || geo.BorderWidth != 2 {
		t.Fatalf("geometry = %+v", geo)
	}
	d.MoveResizeWindow(w, 50, 60, 400, 100)
	geo, _ = d.GetGeometry(w)
	if geo.X != 50 || geo.Y != 60 || geo.Width != 400 || geo.Height != 100 {
		t.Fatalf("after MoveResize: %+v", geo)
	}
}

func TestQueryTreeAndStacking(t *testing.T) {
	_, d := newPair(t)
	a := d.CreateWindow(d.Root, 0, 0, 100, 100, 0, xclient.WindowAttributes{})
	b := d.CreateWindow(d.Root, 0, 0, 100, 100, 0, xclient.WindowAttributes{})
	tree, err := d.QueryTree(d.Root)
	if err != nil {
		t.Fatalf("QueryTree: %v", err)
	}
	if len(tree.Children) != 2 || tree.Children[0] != a || tree.Children[1] != b {
		t.Fatalf("children = %v, want [%d %d]", tree.Children, a, b)
	}
	d.RaiseWindow(a)
	tree, _ = d.QueryTree(d.Root)
	if tree.Children[1] != a {
		t.Fatalf("after raise, children = %v, want %d on top", tree.Children, a)
	}
	child := d.CreateWindow(a, 5, 5, 10, 10, 0, xclient.WindowAttributes{})
	sub, _ := d.QueryTree(child)
	if sub.Parent != a {
		t.Fatalf("parent of %d = %d, want %d", child, sub.Parent, a)
	}
}

func TestAtoms(t *testing.T) {
	_, d := newPair(t)
	a1, err := d.InternAtom("MY_ATOM")
	if err != nil || a1 == xproto.AtomNone {
		t.Fatalf("InternAtom: %v %v", a1, err)
	}
	a2, _ := d.InternAtom("MY_ATOM")
	if a1 != a2 {
		t.Fatalf("repeated intern: %v != %v", a1, a2)
	}
	name, err := d.GetAtomName(a1)
	if err != nil || name != "MY_ATOM" {
		t.Fatalf("GetAtomName: %q %v", name, err)
	}
	// Predefined atoms.
	p, _ := d.InternAtom("PRIMARY")
	if p != xproto.AtomPrimary {
		t.Fatalf("PRIMARY interned as %d", p)
	}
}

func TestProperties(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	prop, _ := d.InternAtom("TEST_PROP")
	d.ChangeProperty(w, prop, xproto.AtomString, []byte("hello"))
	rep, err := d.GetProperty(w, prop, false)
	if err != nil || !rep.Found || string(rep.Data) != "hello" {
		t.Fatalf("GetProperty: %+v %v", rep, err)
	}
	d.AppendProperty(w, prop, xproto.AtomString, []byte(" world"))
	rep, _ = d.GetProperty(w, prop, false)
	if string(rep.Data) != "hello world" {
		t.Fatalf("append: %q", rep.Data)
	}
	// Get with delete.
	rep, _ = d.GetProperty(w, prop, true)
	if !rep.Found {
		t.Fatal("expected property before delete")
	}
	rep, _ = d.GetProperty(w, prop, false)
	if rep.Found {
		t.Fatal("property should be deleted")
	}
	atoms, _ := d.ListProperties(w)
	if len(atoms) != 0 {
		t.Fatalf("ListProperties = %v", atoms)
	}
}

func TestPropertyNotifyAcrossClients(t *testing.T) {
	srv, d1 := newPair(t)
	d2, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatalf("second client: %v", err)
	}
	defer d2.Close()

	// Client 2 watches the root window for property changes — this is the
	// mechanism Tk's send uses for its registry.
	d2.SelectInput(d2.Root, xproto.PropertyChangeMask)
	if err := d2.Sync(); err != nil {
		t.Fatal(err)
	}
	prop, _ := d1.InternAtom("COMM")
	d1.ChangeProperty(d1.Root, prop, xproto.AtomString, []byte("ping"))
	d1.Flush()

	ev := waitEvent(t, d2, "PropertyNotify", func(ev xproto.Event) bool {
		return ev.Type == xproto.PropertyNotify && ev.Atom == prop
	})
	if ev.PropState != xproto.PropertyNewValue {
		t.Fatalf("state = %d", ev.PropState)
	}
	rep, _ := d2.GetProperty(d2.Root, prop, false)
	if string(rep.Data) != "ping" {
		t.Fatalf("property data = %q", rep.Data)
	}
}

func TestMapGeneratesExpose(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 100, 100, 0, xclient.WindowAttributes{EventMask: xproto.ExposureMask | xproto.StructureNotifyMask})
	d.MapWindow(w)
	d.Flush()
	waitEvent(t, d, "MapNotify", func(ev xproto.Event) bool {
		return ev.Type == xproto.MapNotify && ev.Window == w
	})
	waitEvent(t, d, "Expose", func(ev xproto.Event) bool {
		return ev.Type == xproto.Expose && ev.Window == w
	})
}

func TestPointerEnterLeaveAndButton(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 100, 100, 200, 200, 0, xclient.WindowAttributes{
		EventMask: xproto.EnterWindowMask | xproto.LeaveWindowMask |
			xproto.ButtonPressMask | xproto.ButtonReleaseMask,
	})
	d.MapWindow(w)
	d.WarpPointer(150, 150)
	d.Flush()
	ev := waitEvent(t, d, "EnterNotify", func(ev xproto.Event) bool {
		return ev.Type == xproto.EnterNotify && ev.Window == w
	})
	if ev.X != 50 || ev.Y != 50 {
		t.Fatalf("enter at %d,%d; want 50,50", ev.X, ev.Y)
	}
	d.FakeButton(1, true)
	d.Flush()
	bp := waitEvent(t, d, "ButtonPress", func(ev xproto.Event) bool {
		return ev.Type == xproto.ButtonPress && ev.Window == w
	})
	if bp.Detail != 1 {
		t.Fatalf("button detail = %d", bp.Detail)
	}
	// While the button is down the window has an implicit grab: moving
	// outside still reports release to the same window.
	d.WarpPointer(400, 400)
	d.Flush()
	waitEvent(t, d, "LeaveNotify", func(ev xproto.Event) bool {
		return ev.Type == xproto.LeaveNotify && ev.Window == w
	})
	d.FakeButton(1, false)
	d.Flush()
	br := waitEvent(t, d, "ButtonRelease", func(ev xproto.Event) bool {
		return ev.Type == xproto.ButtonRelease
	})
	if br.Window != w {
		t.Fatalf("release went to %d, want %d (implicit grab)", br.Window, w)
	}
}

func TestKeyRoutingWithFocus(t *testing.T) {
	_, d := newPair(t)
	w1 := d.CreateWindow(d.Root, 0, 0, 100, 100, 0, xclient.WindowAttributes{EventMask: xproto.KeyPressMask})
	w2 := d.CreateWindow(d.Root, 200, 0, 100, 100, 0, xclient.WindowAttributes{EventMask: xproto.KeyPressMask})
	d.MapWindow(w1)
	d.MapWindow(w2)
	// Pointer over w1; no focus: keys go to the pointer window.
	d.WarpPointer(50, 50)
	d.FakeKey('a', true)
	d.FakeKey('a', false)
	d.Flush()
	ev := waitEvent(t, d, "KeyPress on w1", func(ev xproto.Event) bool { return ev.Type == xproto.KeyPress })
	if ev.Window != w1 || ev.Keysym != 'a' {
		t.Fatalf("key went to %d keysym %d", ev.Window, ev.Keysym)
	}
	// With focus on w2, keys go there regardless of the pointer.
	d.SetInputFocus(w2)
	d.FakeKey('b', true)
	d.FakeKey('b', false)
	d.Flush()
	ev = waitEvent(t, d, "KeyPress on w2", func(ev xproto.Event) bool { return ev.Type == xproto.KeyPress && ev.Keysym == 'b' })
	if ev.Window != w2 {
		t.Fatalf("focused key went to %d, want %d", ev.Window, w2)
	}
}

func TestModifierState(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 100, 100, 0, xclient.WindowAttributes{EventMask: xproto.KeyPressMask})
	d.MapWindow(w)
	d.WarpPointer(50, 50)
	d.FakeKey(xproto.KsControlL, true)
	d.FakeKey('q', true)
	d.Flush()
	ev := waitEvent(t, d, "Control-q", func(ev xproto.Event) bool {
		return ev.Type == xproto.KeyPress && ev.Keysym == 'q'
	})
	if ev.State&xproto.ControlMask == 0 {
		t.Fatalf("state = %#x, want ControlMask set", ev.State)
	}
	d.FakeKey('q', false)
	d.FakeKey(xproto.KsControlL, false)
	d.Flush()
	d.Sync()
}

func TestSelectionHandshake(t *testing.T) {
	srv, owner := newPair(t)
	requestor, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer requestor.Close()

	ownWin := owner.CreateWindow(owner.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	reqWin := requestor.CreateWindow(requestor.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	owner.SetSelectionOwner(xproto.AtomPrimary, ownWin, 0)
	owner.Sync()

	got, _ := requestor.GetSelectionOwner(xproto.AtomPrimary)
	if got != ownWin {
		t.Fatalf("selection owner = %d, want %d", got, ownWin)
	}

	// Requestor asks for the selection as STRING into property SEL_RESULT.
	dest, _ := requestor.InternAtom("SEL_RESULT")
	requestor.ConvertSelection(xproto.AtomPrimary, xproto.AtomString, dest, reqWin, 0)
	requestor.Flush()

	// Owner receives the SelectionRequest and fulfills it per ICCCM.
	req := waitEvent(t, owner, "SelectionRequest", func(ev xproto.Event) bool {
		return ev.Type == xproto.SelectionRequest
	})
	if req.Requestor != reqWin || req.Selection != xproto.AtomPrimary {
		t.Fatalf("request = %+v", req)
	}
	owner.ChangeProperty(req.Requestor, req.Property, xproto.AtomString, []byte("the selection"))
	owner.SendEvent(req.Requestor, 0, &xproto.Event{
		Type:      xproto.SelectionNotify,
		Requestor: req.Requestor,
		Selection: req.Selection,
		Target:    req.Target,
		Property:  req.Property,
	})
	owner.Flush()

	waitEvent(t, requestor, "SelectionNotify", func(ev xproto.Event) bool {
		return ev.Type == xproto.SelectionNotify && ev.Property == dest
	})
	rep, _ := requestor.GetProperty(reqWin, dest, true)
	if string(rep.Data) != "the selection" {
		t.Fatalf("selection data = %q", rep.Data)
	}

	// A new owner triggers SelectionClear at the old owner.
	newWin := requestor.CreateWindow(requestor.Root, 0, 0, 5, 5, 0, xclient.WindowAttributes{})
	requestor.SetSelectionOwner(xproto.AtomPrimary, newWin, 1)
	requestor.Flush()
	waitEvent(t, owner, "SelectionClear", func(ev xproto.Event) bool {
		return ev.Type == xproto.SelectionClear && ev.Window == ownWin
	})
}

func TestNoOwnerSelectionRefused(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	dest, _ := d.InternAtom("DEST")
	d.ConvertSelection(xproto.AtomSecondary, xproto.AtomString, dest, w, 0)
	d.Flush()
	ev := waitEvent(t, d, "refusal", func(ev xproto.Event) bool {
		return ev.Type == xproto.SelectionNotify
	})
	if ev.Property != xproto.AtomNone {
		t.Fatalf("property = %d, want None", ev.Property)
	}
}

func TestDrawingAndScreenshot(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 50, 50, 0, xclient.WindowAttributes{Background: 0xffffff})
	d.MapWindow(w)
	d.ClearWindow(w)
	gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0xff0000})
	d.FillRectangle(w, gc, 10, 10, 20, 20)
	shot, err := d.Screenshot(w)
	if err != nil {
		t.Fatalf("Screenshot: %v", err)
	}
	if shot.Width != 50 {
		t.Fatalf("shot %dx%d", shot.Width, shot.Height)
	}
	// The window screenshot includes the WM title bar at the top.
	yOff := int(shot.Height) - 50
	at := func(x, y int) [3]byte {
		i := ((y+yOff)*int(shot.Width) + x) * 3
		return [3]byte{shot.Pixels[i], shot.Pixels[i+1], shot.Pixels[i+2]}
	}
	if at(15, 15) != [3]byte{0xff, 0, 0} {
		t.Fatalf("pixel at 15,15 = %v, want red", at(15, 15))
	}
	if at(5, 5) != [3]byte{0xff, 0xff, 0xff} {
		t.Fatalf("pixel at 5,5 = %v, want white", at(5, 5))
	}
}

func TestTextRendering(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 100, 30, 0, xclient.WindowAttributes{Background: 0xffffff})
	d.MapWindow(w)
	d.ClearWindow(w)
	font, err := d.OpenFont("fixed")
	if err != nil {
		t.Fatalf("OpenFont: %v", err)
	}
	if font.TextWidth("abc") != 18 {
		t.Fatalf("TextWidth(abc) = %d, want 18", font.TextWidth("abc"))
	}
	gc := d.CreateGC(xclient.GCValues{
		Mask:       xproto.GCForeground | xproto.GCFont,
		Foreground: 0x000000, Font: font.ID,
	})
	d.DrawString(w, gc, 5, 20, "Hi")
	shot, _ := d.Screenshot(w)
	// Some pixel in the text area must be black.
	yOff := int(shot.Height) - 30
	black := 0
	for y := 8; y < 22; y++ {
		for x := 5; x < 25; x++ {
			i := ((y+yOff)*int(shot.Width) + x) * 3
			if shot.Pixels[i] == 0 && shot.Pixels[i+1] == 0 && shot.Pixels[i+2] == 0 {
				black++
			}
		}
	}
	if black < 10 {
		t.Fatalf("text rendered %d black pixels, want >= 10", black)
	}
}

func TestNamedColors(t *testing.T) {
	_, d := newPair(t)
	px, found, err := d.AllocNamedColor("MediumSeaGreen")
	if err != nil || !found {
		t.Fatalf("MediumSeaGreen: %v found=%v", err, found)
	}
	if px != 0x3cb371 {
		t.Fatalf("MediumSeaGreen pixel = %#x", px)
	}
	// Space- and case-insensitive, as in X.
	px2, found, _ := d.AllocNamedColor("medium sea green")
	if !found || px2 != px {
		t.Fatalf("case-insensitive lookup failed: %#x", px2)
	}
	_, found, _ = d.AllocNamedColor("NoSuchColor")
	if found {
		t.Fatal("bogus color reported found")
	}
	hex, found, _ := d.AllocNamedColor("#ff8000")
	if !found || hex != 0xff8000 {
		t.Fatalf("#ff8000 = %#x found=%v", hex, found)
	}
	rgb, err := d.AllocColor(0xffff, 0, 0)
	if err != nil || rgb != 0xff0000 {
		t.Fatalf("AllocColor red = %#x %v", rgb, err)
	}
}

func TestCountersTrackRoundTrips(t *testing.T) {
	srv, d := newPair(t)
	m, sm := d.Metrics(), srv.Metrics()
	rttsBefore := m.Counter("roundtrips").Value()
	histBefore := m.Histograms()["roundtrip"].Count
	reqsBefore := sm.Counter("requests").Value()
	for i := 0; i < 5; i++ {
		if _, _, err := d.AllocNamedColor("red"); err != nil {
			t.Fatal(err)
		}
	}
	// The server's registry saw every request by the time its reply
	// came back.
	if got := sm.Counter("requests").Value() - reqsBefore; got != 5 {
		t.Fatalf("server requests grew by %d, want 5", got)
	}
	if got := sm.Counter("requests.AllocNamedColor").Value(); got != 5 {
		t.Fatalf("server requests.AllocNamedColor = %d, want 5", got)
	}
	// The client-side registry agrees, and the roundtrip latency
	// histogram recorded each one.
	if got := m.Counter("roundtrips").Value() - rttsBefore; got != 5 {
		t.Fatalf("client roundtrips grew by %d, want 5", got)
	}
	if got := m.Histograms()["roundtrip"].Count - histBefore; got != 5 {
		t.Fatalf("roundtrip histogram grew by %d, want 5", got)
	}
	if got := m.Counter("requests.AllocNamedColor").Value(); got != 5 {
		t.Fatalf("requests.AllocNamedColor = %d, want 5", got)
	}
}

func TestDestroyNotifyAndCleanup(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{EventMask: xproto.StructureNotifyMask})
	child := d.CreateWindow(w, 0, 0, 5, 5, 0, xclient.WindowAttributes{EventMask: xproto.StructureNotifyMask})
	d.MapWindow(w)
	d.DestroyWindow(w)
	d.Flush()
	waitEvent(t, d, "child DestroyNotify", func(ev xproto.Event) bool {
		return ev.Type == xproto.DestroyNotify && ev.Window == child
	})
	waitEvent(t, d, "DestroyNotify", func(ev xproto.Event) bool {
		return ev.Type == xproto.DestroyNotify && ev.Window == w
	})
	if _, err := d.GetGeometry(w); err == nil {
		t.Fatal("GetGeometry on destroyed window should error")
	}
}

func TestProtocolErrorSurfacesOnRoundTrip(t *testing.T) {
	_, d := newPair(t)
	if _, err := d.GetGeometry(999999); err == nil {
		t.Fatal("expected error for bad drawable")
	}
	// The connection survives errors.
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync after error: %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	srv := xserver.New(640, 480)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d, err := xclient.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer d.Close()
	w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	geo, err := d.GetGeometry(w)
	if err != nil || geo.Width != 10 {
		t.Fatalf("over TCP: %+v %v", geo, err)
	}
}

func TestSendEventToWindowOwner(t *testing.T) {
	srv, d1 := newPair(t)
	d2, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	w2 := d2.CreateWindow(d2.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	d2.Sync()
	// With mask 0, SendEvent goes to the creating client (ICCCM usage).
	d1.SendEvent(w2, 0, &xproto.Event{Type: xproto.ClientMessage, Data: "hello"})
	d1.Flush()
	ev := waitEvent(t, d2, "ClientMessage", func(ev xproto.Event) bool {
		return ev.Type == xproto.ClientMessage
	})
	if ev.Data != "hello" || !ev.SendEvent {
		t.Fatalf("event = %+v", ev)
	}
}

// TestNewIDStaysInRange drives a client through its whole range of
// resource IDs. Past the end NewID reuses the IDs the free wrappers
// handed back, so the client's creates keep succeeding, and with none
// left it answers None rather than an ID outside its range.
func TestNewIDStaysInRange(t *testing.T) {
	_, d := newPair(t)
	gc := d.CreateGC(xclient.GCValues{})
	end := xproto.ID(uint32(gc)&^(xproto.IDRange-1) + xproto.IDRange - 1)
	for range xproto.IDRange - 3 { // all but the range's last ID
		d.NewID()
	}
	w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	if w != end {
		t.Fatalf("the last ID counted out is %#x, want the range's last, %#x", uint32(w), uint32(end))
	}
	d.DestroyWindow(w)
	for range 3 {
		if got := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{}); got != w {
			t.Fatalf("a window past the range got ID %#x, want the freed %#x", uint32(got), uint32(w))
		}
		d.DestroyWindow(w)
	}
	d.CreateGC(xclient.GCValues{})
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if errs := d.TakeErrors(); len(errs) != 0 {
		t.Fatalf("creates past the range failed: %q", errs)
	}
	if id := d.NewID(); id != 0 {
		t.Fatalf("NewID with no ID left = %#x, want None", uint32(id))
	}
}
