package xserver

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/flatimg"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

func TestImageFillAndClip(t *testing.T) {
	im := newImage(10, 10)
	im.fillRect(2, 2, 3, 3, 0xff0000)
	if im.get(2, 2) != 0xff0000 || im.get(4, 4) != 0xff0000 {
		t.Fatal("fill inside")
	}
	if im.get(5, 5) != 0 || im.get(1, 1) != 0 {
		t.Fatal("fill boundary")
	}
	// Out-of-bounds fills clip instead of panicking.
	im.fillRect(-5, -5, 100, 100, 0x00ff00)
	if im.get(0, 0) != 0x00ff00 || im.get(9, 9) != 0x00ff00 {
		t.Fatal("clipped fill")
	}
	// set/get out of range are no-ops / zero.
	im.fillRect(-1, 0, 1, 1, 1)
	im.fillRect(100, 100, 1, 1, 1)
	if im.get(-1, 0) != 0 || im.get(100, 100) != 0 {
		t.Fatal("out-of-range access")
	}
}

// TestSameColourFillKeepsTileSolid: a partial fill in a solid tile's own
// colour changes no pixel, so the tile gets no slab and no damage.
func TestSameColourFillKeepsTileSolid(t *testing.T) {
	im := newFilledImage(100, 100, 0xabcdef, nil)
	im.snapshot() // clears the damage of the initial fill
	im.fillRect(5, 5, 10, 3, 0xabcdef)
	if im.tiles[0].px != nil {
		t.Fatal("a same-colour partial fill gave the solid tile a slab")
	}
	if n := im.damagedTiles(); n != 0 {
		t.Fatalf("a same-colour partial fill damaged %d tiles, want 0", n)
	}
	im.fillRect(5, 5, 10, 3, 0x123456)
	if im.tiles[0].px == nil || im.get(5, 5) != 0x123456 || im.get(4, 5) != 0xabcdef {
		t.Fatal("a partial fill in another colour did not paint the tile")
	}
}

// TestImageResizePreservesContent: a window resize builds a new backing
// store painted with the background (newFilledImage), which is what the
// seed's resize-preserving-content followed by a full background fill
// produced. Sizes are clamped to 1 like the flat renderer's.
func TestImageResizePreservesContent(t *testing.T) {
	for _, sz := range [][2]int{{4, 4}, {8, 8}, {2, 2}, {0, 3}, {65, 129}} {
		im := newFilledImage(sz[0], sz[1], 0x123456, nil)
		flat := flatimg.New(4, 4)
		flat.FillRect(0, 0, 4, 4, 0x654321)
		flat.Resize(sz[0], sz[1])
		flat.FillRect(0, 0, flat.W, flat.H, 0x123456)
		requireSamePixels(t, fmt.Sprintf("%dx%d", sz[0], sz[1]), im, flat)
	}
}

func TestImageLines(t *testing.T) {
	im := newImage(10, 10)
	im.drawLine(0, 0, 9, 9, 1, 7)
	for i := 0; i < 10; i++ {
		if im.get(i, i) != 7 {
			t.Fatalf("diagonal pixel (%d,%d) unset", i, i)
		}
	}
	im2 := newImage(10, 10)
	im2.drawLine(0, 5, 9, 5, 1, 9)
	for i := 0; i < 10; i++ {
		if im2.get(i, 5) != 9 {
			t.Fatal("horizontal line")
		}
	}
}

func TestImageFillPoly(t *testing.T) {
	im := newImage(20, 20)
	// A solid square as a polygon.
	im.fillPoly([]xproto.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 15, Y: 15}, {X: 5, Y: 15}}, 3)
	if im.get(10, 10) != 3 {
		t.Fatal("interior not filled")
	}
	if im.get(2, 2) != 0 || im.get(17, 10) != 0 {
		t.Fatal("exterior filled")
	}
	// Triangles (the scrollbar arrows).
	im2 := newImage(20, 20)
	im2.fillPoly([]xproto.Point{{X: 10, Y: 2}, {X: 18, Y: 16}, {X: 2, Y: 16}}, 5)
	if im2.get(10, 10) != 5 {
		t.Fatal("triangle interior")
	}
	if im2.get(2, 3) != 0 {
		t.Fatal("triangle exterior")
	}
	// Degenerate polygons do nothing.
	im2.fillPoly([]xproto.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}, 9)
}

func TestCopyFromOverlap(t *testing.T) {
	im := newImage(10, 1)
	for i := 0; i < 10; i++ {
		im.fillRect(i, 0, 1, 1, uint32(i+1))
	}
	// Overlapping self-copy shifts right by 2.
	im.copyFrom(im, 0, 0, 2, 0, 8, 1)
	for i := 2; i < 10; i++ {
		if im.get(i, 0) != uint32(i-1) {
			t.Fatalf("overlap copy pixel %d = %d", i, im.get(i, 0))
		}
	}
}

func TestFontMetricsAndRendering(t *testing.T) {
	f := openFont("fixed")
	if f.advance != 6 || f.ascent != 8 || f.descent != 2 {
		t.Fatalf("fixed metrics = %d/%d/%d", f.advance, f.ascent, f.descent)
	}
	if f.textWidth("hello") != 30 {
		t.Fatal("text width")
	}
	big := openFont("8x16bold")
	if big.scale != 2 || big.advance != 12 {
		t.Fatal("large font variant")
	}
	im := newImage(40, 20)
	n := f.drawString(im, 0, 10, "W", 1)
	if n != 6 {
		t.Fatalf("advance = %d", n)
	}
	set := 0
	for y := 0; y < 20; y++ {
		for x := 0; x < 6; x++ {
			if im.get(x, y) == 1 {
				set++
			}
		}
	}
	if set < 8 {
		t.Fatalf("glyph W drew %d pixels", set)
	}
	// Non-ASCII renders the fallback glyph without panicking.
	f.drawString(im, 0, 10, "\x01\xff", 1)
}

func TestFont5x7TableComplete(t *testing.T) {
	if len(font5x7) != 95*5 {
		t.Fatalf("font table has %d bytes, want %d", len(font5x7), 95*5)
	}
	// Every printable character has at least one pixel except space.
	for c := 0x21; c <= 0x7e; c++ {
		glyph := font5x7[(c-0x20)*5 : (c-0x20)*5+5]
		any := false
		for _, col := range glyph {
			if col != 0 {
				any = true
			}
		}
		if !any {
			t.Errorf("glyph %q is empty", rune(c))
		}
	}
}

func TestLookupColor(t *testing.T) {
	cases := []struct {
		name  string
		pixel uint32
		ok    bool
	}{
		{"red", 0xff0000, true},
		{"Red", 0xff0000, true},
		{"RED", 0xff0000, true},
		{"Medium Sea Green", 0x3cb371, true},
		{"MediumSeaGreen", 0x3cb371, true},
		{"#ff8000", 0xff8000, true},
		{"#f80", 0xff8800, true},
		{"#ffff80000000", 0xff8000, true},
		{"PalePink1", 0xffe4e1, true},
		{"NotAColor", 0, false},
		{"#xyz", 0, false},
		{"#12345", 0, false},
	}
	for _, c := range cases {
		px, ok := lookupColor(c.name)
		if ok != c.ok || (ok && px != c.pixel) {
			t.Errorf("lookupColor(%q) = %#x %v, want %#x %v", c.name, px, ok, c.pixel, c.ok)
		}
	}
}

// Property: fillRect never touches pixels outside the clipped rectangle.
func TestFillRectClipProperty(t *testing.T) {
	f := func(x, y int8, w, h uint8) bool {
		im := newImage(16, 16)
		im.fillRect(int(x), int(y), int(w), int(h), 0xff)
		for yy := 0; yy < 16; yy++ {
			for xx := 0; xx < 16; xx++ {
				inside := xx >= int(x) && xx < int(x)+int(w) &&
					yy >= int(y) && yy < int(y)+int(h)
				got := im.get(xx, yy) == 0xff
				if got != inside {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServerWindowTreeInternals(t *testing.T) {
	s := New(100, 100)
	defer s.Close()
	if s.Root() != 1 {
		t.Fatal("root id")
	}
	if s.deepestAt(50, 50) != s.root {
		t.Fatal("deepest on empty screen should be root")
	}
	if !s.viewable(s.root) {
		t.Fatal("root must be viewable")
	}
	if x, y := s.absPos(s.root); x != 0 || y != 0 {
		t.Fatal("root abs pos")
	}
}

// TestZeroSizeReconfigureKeepsContent: a width of 0 is clamped to 1, so
// re-sending it to a window already 1 pixel wide is no resize — the
// drawn pixels survive and no further Expose is sent.
func TestZeroSizeReconfigureKeepsContent(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := d.CreateWindow(d.Root, 10, 10, 30, 20, 0, xclient.WindowAttributes{Background: 0xffffff, EventMask: xproto.ExposureMask})
	d.MapWindow(w)
	d.ResizeWindow(w, 0, 20)
	gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0xff0000})
	d.FillRectangle(w, gc, 0, 5, 1, 10)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	events := d.Metrics().Counter("events")
	exposes := events.Value()
	d.ResizeWindow(w, 0, 20)
	d.ResizeWindow(w, 0, 20)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := events.Value() - exposes; n != 0 {
		t.Errorf("re-sending the clamped size sent %d more Expose events", n)
	}
	s.mu.Lock()
	win := s.windows[w]
	gotW, gotH, px := win.w, win.h, win.img.get(0, 8)
	s.mu.Unlock()
	if gotW != 1 || gotH != 20 {
		t.Fatalf("window is %dx%d, want 1x20", gotW, gotH)
	}
	if px != 0xff0000 {
		t.Fatalf("drawn pixel = %06x after re-sending the clamped size, want ff0000", px)
	}
}
