package xserver

import (
	"testing"

	"repro/internal/xclient"
)

// TestDestroyReleasesChildSlots destroys a parent of many children with
// one request. The children are unlinked last-first, so each removal
// shortens the parent's array; no slot of it, up to its capacity, may
// still point at a destroyed window and keep its pixels reachable.
func TestDestroyReleasesChildSlots(t *testing.T) {
	s := New(200, 200)
	t.Cleanup(s.Close)
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	parent := d.CreateWindow(d.Root, 0, 0, 100, 100, 0, xclient.WindowAttributes{})
	for i := 0; i < 20; i++ {
		d.CreateWindow(parent, i, i, 10, 10, 0, xclient.WindowAttributes{})
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	p := s.window(parent)
	root := s.root
	s.mu.Unlock()

	d.DestroyWindow(parent)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, arr := range [][]*window{p.children, root.children} {
		for i, w := range arr[:cap(arr)] {
			if w != nil && s.window(w.id) != w {
				t.Errorf("slot %d of a children array (len %d) still holds destroyed window %d", i, len(arr), w.id)
			}
		}
	}
}
