package xserver

import (
	"strings"
	"testing"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

// openClient opens a display on s that the test closes when it ends.
func openClient(t *testing.T, s *Server) *xclient.Display {
	t.Helper()
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// wantBadIDChoice syncs d and checks that each of its errors since the
// last check is a BadIDChoice, and that there are n of them.
func wantBadIDChoice(t *testing.T, d *xclient.Display, n int) {
	t.Helper()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	errs := d.TakeErrors()
	for _, e := range errs {
		if !strings.Contains(e, "BadIDChoice") {
			t.Errorf("error %q is not BadIDChoice", e)
		}
	}
	if len(errs) != n {
		t.Fatalf("got %d errors %q, want %d BadIDChoice", len(errs), errs, n)
	}
}

// foreground reads GC id's foreground, or reports that it is gone.
func (s *Server) foreground(id xproto.ID) (uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gc := s.gc(id)
	if gc == nil {
		return 0, false
	}
	return gc.foreground, true
}

// TestForeignIDRefused: a client cannot create a resource under an ID
// from another client's range, so it can neither replace that client's
// resource nor take it away when it leaves.
func TestForeignIDRefused(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	a, b := openClient(t, s), openClient(t, s)
	gc := a.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0xff0000})
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	next := a.NewID()
	for _, req := range []xproto.Request{
		&xproto.CreateGCReq{Gid: gc, Mask: xproto.GCForeground, Foreground: 0x00ff00},
		&xproto.CreatePixmapReq{Pid: gc, Width: 8, Height: 8},
		&xproto.OpenFontReq{Fid: next, Name: "fixed"},
		&xproto.CreateCursorReq{Cid: next, Shape: "watch"},
		&xproto.CreateWindowReq{Wid: next, Parent: b.Root, Width: 8, Height: 8},
	} {
		b.Request(req)
	}
	wantBadIDChoice(t, b, 5)
	if fg, ok := s.foreground(gc); !ok || fg != 0xff0000 {
		t.Fatalf("A's GC after B's create: foreground %06x, present %v; want ff0000", fg, ok)
	}
	if got, want := s.resourceCounts(), (tableCounts{windows: 1, gcs: 1}); got != want {
		t.Fatalf("resource table = %+v, want %+v", got, want)
	}
	if _, _, gcs := s.QuotaUsage(); gcs != 1 {
		t.Fatalf("%d GCs reserved, want 1: a refused create must reserve nothing", gcs)
	}
	b.Close()
	waitForTable(t, s, tableCounts{windows: 1, gcs: 1})
	if fg, ok := s.foreground(gc); !ok || fg != 0xff0000 {
		t.Fatalf("A's GC after B left: foreground %06x, present %v; want ff0000", fg, ok)
	}
}

// TestPixmapOnLiveWindowRefused: a pixmap cannot take a live window's
// ID, where it would shadow the window for drawing.
func TestPixmapOnLiveWindowRefused(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	d := openClient(t, s)
	w := d.CreateWindow(d.Root, 0, 0, 40, 30, 0, xclient.WindowAttributes{Background: 0x0000ff})
	d.Request(&xproto.CreatePixmapReq{Pid: w, Width: 8, Height: 8})
	wantBadIDChoice(t, d, 1)
	s.mu.Lock()
	win, im := s.window(w), s.drawable(w)
	s.mu.Unlock()
	if win == nil || im != win.img {
		t.Fatalf("ID %#x no longer draws into its window", uint32(w))
	}
	if _, pixmapBytes, _ := s.QuotaUsage(); pixmapBytes != 0 {
		t.Fatalf("%d pixmap bytes reserved, want 0", pixmapBytes)
	}
}

// TestCleanupFreesEveryKind: clients that each open a font, create a
// cursor, a GC and a pixmap, and leave, leave nothing behind.
func TestCleanupFreesEveryKind(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	for range 3 {
		d := openClient(t, s)
		if _, err := d.OpenFont("fixed"); err != nil {
			t.Fatal(err)
		}
		d.CreateCursor("watch")
		d.CreateGC(xclient.GCValues{})
		d.CreatePixmap(8, 8)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	waitForTable(t, s, tableCounts{windows: 1})
	if windows, pixmapBytes, gcs := s.QuotaUsage(); windows != 0 || pixmapBytes != 0 || gcs != 0 {
		t.Fatalf("quota usage %d windows, %d pixmap bytes, %d GCs after every client left, want 0", windows, pixmapBytes, gcs)
	}
}

// TestIDBlocksReused: a departed client's block of resource IDs goes to
// the next client, and once every block is in use a new client is
// refused, never handed block 0, which holds the root window, or the
// block of a client still connected.
func TestIDBlocksReused(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	a := openClient(t, s)
	w := a.CreateWindow(a.Root, 0, 0, 40, 30, 0, xclient.WindowAttributes{})
	gc := a.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0xff0000})
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	const last = 1<<32 - xproto.IDRange
	s.mu.Lock()
	s.nextIDBase = last
	s.mu.Unlock()
	for range 3 {
		b := openClient(t, s)
		if base := uint32(b.NewID()) &^ (xproto.IDRange - 1); base != last {
			t.Fatalf("client got block %#x, want %#x", base, uint32(last))
		}
		b.CreateWindow(b.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
		b.CreateGC(xclient.GCValues{})
		wantBadIDChoice(t, b, 0)
		if d, err := xclient.Open(s.ConnectPipe()); err == nil || !strings.Contains(err.Error(), "maximum number of clients") {
			if d != nil {
				d.Close()
			}
			t.Fatalf("a client with every block in use: %v, want refused", err)
		}
		b.Close()
		waitForTable(t, s, tableCounts{windows: 2, gcs: 1})
	}
	s.mu.Lock()
	rootKept, winKept := s.window(s.Root()) == s.root, s.window(w) != nil
	s.mu.Unlock()
	if !rootKept || !winKept {
		t.Fatalf("after the clients left: root kept %v, A's window kept %v", rootKept, winKept)
	}
	if fg, ok := s.foreground(gc); !ok || fg != 0xff0000 {
		t.Fatalf("A's GC after the clients left: foreground %06x, present %v; want ff0000", fg, ok)
	}
	a.CreateWindow(a.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
	wantBadIDChoice(t, a, 0)
}
