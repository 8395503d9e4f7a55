package xserver

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

// tableCounts is a snapshot of the resource table by kind.
type tableCounts struct{ windows, pixmaps, gcs, fonts, cursors int }

// resourceCounts snapshots the resource table; windows include the
// root.
func (s *Server) resourceCounts() tableCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n tableCounts
	for _, r := range s.res {
		switch r.(type) {
		case *window:
			n.windows++
		case *pixmap:
			n.pixmaps++
		case *gcontext:
			n.gcs++
		case *font:
			n.fonts++
		case *cursor:
			n.cursors++
		}
	}
	return n
}

// windowCount snapshots the live window count (including the root).
func (s *Server) windowCount() int { return s.resourceCounts().windows }

// TestCleanupConnNestedOwnership: disconnect cleanup must survive one
// client owning a subtree nested inside another client's window — the
// collect-then-destroy regression. Client B owns a chain nested inside
// client A's window (plus a top-level of its own); when B disconnects,
// exactly B's windows go away, A's window keeps only A's child, and A
// stays fully usable.
func TestCleanupConnNestedOwnership(t *testing.T) {
	s := New(400, 300)
	defer s.Close()

	a, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	w1 := a.CreateWindow(a.Root, 10, 10, 200, 150, 1, xclient.WindowAttributes{})
	a2 := a.CreateWindow(w1, 5, 5, 50, 50, 0, xclient.WindowAttributes{})
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}

	b, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bt := b.CreateWindow(b.Root, 250, 10, 100, 100, 1, xclient.WindowAttributes{})
	b1 := b.CreateWindow(w1, 20, 20, 80, 60, 0, xclient.WindowAttributes{})
	b2 := b.CreateWindow(b1, 4, 4, 40, 30, 0, xclient.WindowAttributes{})
	b3 := b.CreateWindow(b2, 2, 2, 20, 15, 0, xclient.WindowAttributes{})
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}

	if got := s.windowCount(); got != 7 {
		t.Fatalf("window count before disconnect = %d, want 7", got)
	}

	// Disconnect B; cleanup runs asynchronously when its read loop exits.
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.windowCount() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("cleanup never settled: window count = %d, want 3", s.windowCount())
		}
		time.Sleep(2 * time.Millisecond)
	}

	s.mu.Lock()
	survivorW1 := s.window(w1)
	survivorA2 := s.window(a2)
	var leaked []xproto.ID
	for _, id := range []xproto.ID{bt, b1, b2, b3} {
		if s.window(id) != nil {
			leaked = append(leaked, id)
		}
	}
	var w1Children []xproto.ID
	if survivorW1 != nil {
		for _, ch := range survivorW1.children {
			w1Children = append(w1Children, ch.id)
		}
	}
	s.mu.Unlock()

	if survivorW1 == nil || survivorA2 == nil {
		t.Fatalf("client A's windows destroyed by B's cleanup (w1=%v a2=%v)", survivorW1 != nil, survivorA2 != nil)
	}
	if len(leaked) != 0 {
		t.Fatalf("client B's windows leaked: %v", leaked)
	}
	if len(w1Children) != 1 || w1Children[0] != a2 {
		t.Fatalf("w1 children after cleanup = %v, want [%d]", w1Children, a2)
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("surviving client broken after cleanup: %v", err)
	}
}

// TestMultiClientStressRace drives 8 concurrent clients through a mixed
// workload across every subsystem — windows created, configured and
// destroyed; overlapping atom sets interned; colors allocated; GCs and
// pixmaps churned; cross-client SendEvent traffic — under the race
// detector, with a watchdog per phase. After a clean teardown every
// resource count must be exact.
func TestMultiClientStressRace(t *testing.T) {
	const clients = 8
	const rounds = 25

	s := New(800, 600)
	defer s.Close()

	displays := make([]*xclient.Display, clients)
	for i := range displays {
		d, err := xclient.Open(s.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		displays[i] = d
	}

	runPhase := func(name string, f func(i int, d *xclient.Display) error) {
		t.Helper()
		errc := make(chan error, clients)
		for i, d := range displays {
			go func(i int, d *xclient.Display) { errc <- f(i, d) }(i, d)
		}
		watchdog := time.After(60 * time.Second)
		for range displays {
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			case <-watchdog:
				t.Fatalf("%s: watchdog fired — a client wedged (deadlock?)", name)
			}
		}
	}

	var sharedAtoms []string
	for k := 0; k < 16; k++ {
		sharedAtoms = append(sharedAtoms, fmt.Sprintf("STRESS_ATOM_%d", k))
	}
	palette := []string{"red", "green", "blue", "mediumseagreen", "bisque", "gold", "steelblue", "palepink1"}

	s.mu.Lock()
	atomBase := len(s.atoms)
	s.mu.Unlock()

	tops := make([]xproto.ID, clients)
	runPhase("create tops", func(i int, d *xclient.Display) error {
		tops[i] = d.CreateWindow(d.Root, i*40, 10, 120, 90, 1,
			xclient.WindowAttributes{EventMask: xproto.StructureNotifyMask | xproto.ExposureMask})
		d.MapWindow(tops[i])
		// A font and a cursor that only the client's departure frees.
		if _, err := d.OpenFont("fixed"); err != nil {
			return fmt.Errorf("client %d: open font: %w", i, err)
		}
		d.SetWindowCursor(tops[i], d.CreateCursor("watch"))
		return d.Sync()
	})

	runPhase("mixed workload", func(i int, d *xclient.Display) error {
		for r := 0; r < rounds; r++ {
			child := d.CreateWindow(tops[i], r%20, r%20, 30, 20, 0, xclient.WindowAttributes{})
			d.MapWindow(child)
			d.MoveResizeWindow(child, (r+1)%25, (r+2)%25, 24+r%8, 18+r%6)

			// Overlapping atom sets, pipelined 4 deep.
			var acks [4]xclient.AtomCookie
			for k := range acks {
				acks[k] = d.InternAtomAsync(sharedAtoms[(r+k*3+i)%len(sharedAtoms)])
			}
			for k := range acks {
				if _, err := acks[k].Wait(); err != nil {
					return fmt.Errorf("client %d: intern: %w", i, err)
				}
			}

			if _, found, err := d.AllocNamedColor(palette[(i+r)%len(palette)]); err != nil || !found {
				return fmt.Errorf("client %d: alloc color: found=%v err=%v", i, found, err)
			}

			gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: uint32(i)})
			d.ChangeGC(gc, xclient.GCValues{Mask: xproto.GCLineWidth, LineWidth: 2})
			pix := d.CreatePixmap(16, 16)
			d.FillRectangle(pix, gc, 0, 0, 16, 16)
			d.CopyArea(pix, tops[i], gc, 0, 0, 1, 1, 8, 8)
			d.FreePixmap(pix)
			d.FreeGC(gc)

			// Cross-client send traffic to the neighbor's top-level.
			d.SendEvent(tops[(i+1)%clients], xproto.StructureNotifyMask,
				&xproto.Event{Type: xproto.ClientMessage, Data: fmt.Sprintf("c%d r%d", i, r)})

			d.DestroyWindow(child)
		}
		if _, err := d.InternAtom(fmt.Sprintf("STRESS_CLIENT_%d", i)); err != nil {
			return fmt.Errorf("client %d: intern unique: %w", i, err)
		}
		return d.Sync()
	})

	runPhase("teardown", func(i int, d *xclient.Display) error {
		d.DestroyWindow(tops[i])
		return d.Sync()
	})

	// Everything quiesced (every client synced): counts must be exact.
	// The root is the one window left; each client still holds its font
	// and cursor.
	if got, want := s.resourceCounts(), (tableCounts{windows: 1, fonts: clients, cursors: clients}); got != want {
		t.Errorf("resource table after teardown = %+v, want %+v", got, want)
	}
	s.mu.Lock()
	atomCount, nameCount := len(s.atoms), len(s.atomNames)
	cells := len(s.colorCells)
	s.mu.Unlock()
	wantAtoms := atomBase + len(sharedAtoms) + clients
	if atomCount != wantAtoms || nameCount != wantAtoms {
		t.Errorf("atom tables = %d/%d entries, want %d (no duplicate interning under contention)", atomCount, nameCount, wantAtoms)
	}
	if cells != len(palette) {
		t.Errorf("color cells = %d, want %d (one per distinct spec)", cells, len(palette))
	}
	for i, d := range displays {
		if errs := d.TakeErrors(); len(errs) != 0 {
			t.Errorf("client %d saw protocol errors: %v", i, errs)
		}
	}

	// Every client leaves: its fonts and cursors go with it.
	for _, d := range displays {
		d.Close()
	}
	waitForTable(t, s, tableCounts{windows: 1})
}

// waitForTable waits for the cleanup of departed clients to leave the
// resource table at want.
func waitForTable(t *testing.T, s *Server, want tableCounts) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.resourceCounts() != want {
		if time.Now().After(deadline) {
			t.Fatalf("resource table = %+v after the clients left, want %+v", s.resourceCounts(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
