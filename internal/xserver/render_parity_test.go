package xserver

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/flatimg"
	"repro/internal/obs"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// The tests in this file pin the tiled renderer to the seed's flat
// per-pixel renderer, preserved verbatim in internal/flatimg. Every
// primitive must produce pixel-identical output: the tile layer is an
// optimization, never a semantic change.

// requireSamePixels compares a tiled image against the flat reference
// pixel for pixel, through get and through packRGB, reporting the first
// few mismatches.
func requireSamePixels(t *testing.T, tag string, tiled *image, flat *flatimg.Image) {
	t.Helper()
	if tiled.w != flat.W || tiled.h != flat.H {
		t.Fatalf("%s: size mismatch: tiled %dx%d, flat %dx%d", tag, tiled.w, tiled.h, flat.W, flat.H)
	}
	packed := make([]byte, flat.W*flat.H*3)
	tiled.packRGB(packed)
	bad := 0
	for y := 0; y < flat.H; y++ {
		for x := 0; x < flat.W; x++ {
			i := (y*flat.W + x) * 3
			got, want := tiled.get(x, y), flat.Get(x, y)
			if rgb := uint32(packed[i])<<16 | uint32(packed[i+1])<<8 | uint32(packed[i+2]); got != want || rgb != want {
				t.Errorf("%s: pixel (%d,%d) = %06x (packed %06x), want %06x", tag, x, y, got, rgb, want)
				if bad++; bad > 8 {
					t.Fatalf("%s: too many mismatches", tag)
				}
			}
		}
	}
}

func TestRenderParityFillRect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tiled := newImage(200, 150)
	flat := flatimg.New(200, 150)
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(260)-30, rng.Intn(200)-25
		w, h := rng.Intn(120), rng.Intn(90)
		px := rng.Uint32() & 0xffffff
		tiled.fillRect(x, y, w, h, px)
		flat.FillRect(x, y, w, h, px)
	}
	requireSamePixels(t, "fillRect", tiled, flat)
}

// TestRenderParityFillRects covers the batched PolyFillRectangle path,
// rectangles overlapping in order and one clipped on every side.
func TestRenderParityFillRects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tiled := newImage(1024, 512)
	flat := flatimg.New(1024, 512)

	var rects []xproto.Rect
	for i := 0; i < 100; i++ {
		rects = append(rects, xproto.Rect{
			X: int16(rng.Intn(1100) - 50), Y: int16(rng.Intn(560) - 30),
			W: uint16(rng.Intn(200)), H: uint16(rng.Intn(120)),
		})
	}
	tiled.fillRects(rects, 0x123456)
	for _, r := range rects {
		flat.FillRect(int(r.X), int(r.Y), int(r.W), int(r.H), 0x123456)
	}

	// One rect larger than the image, clipped on every side.
	tiled.fillRects([]xproto.Rect{{X: -8, Y: -8, W: 1040, H: 528}}, 0xabcdef)
	flat.FillRect(-8, -8, 1040, 528, 0xabcdef)
	requireSamePixels(t, "fillRects", tiled, flat)
}

func TestRenderParityRectAndLine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tiled := newImage(200, 160)
	flat := flatimg.New(200, 160)
	for lw := 1; lw <= 5; lw++ {
		x, y := rng.Intn(180)-10, rng.Intn(140)-10
		w, h := 20+rng.Intn(80), 20+rng.Intn(60)
		px := rng.Uint32() & 0xffffff
		tiled.drawRect(x, y, w, h, lw, px)
		flat.DrawRect(x, y, w, h, lw, px)
	}
	// Horizontal and vertical lines collapse to one rectangle; make
	// sure both orientations and both directions match the seed's
	// Bresenham walk, at every width.
	for lw := 1; lw <= 5; lw++ {
		y := 10 + lw*12
		tiled.drawLine(5, y, 180, y, lw, 0x010000*uint32(lw))
		flat.DrawLine(5, y, 180, y, lw, 0x010000*uint32(lw))
		tiled.drawLine(170, y+6, 3, y+6, lw, 0x000100*uint32(lw))
		flat.DrawLine(170, y+6, 3, y+6, lw, 0x000100*uint32(lw))
		x := 8 + lw*15
		tiled.drawLine(x, 4, x, 150, lw, 0x000001*uint32(lw))
		flat.DrawLine(x, 4, x, 150, lw, 0x000001*uint32(lw))
	}
	for i := 0; i < 60; i++ {
		x0, y0 := rng.Intn(240)-20, rng.Intn(200)-20
		x1, y1 := rng.Intn(240)-20, rng.Intn(200)-20
		lw := 1 + rng.Intn(5)
		px := rng.Uint32() & 0xffffff
		tiled.drawLine(x0, y0, x1, y1, lw, px)
		flat.DrawLine(x0, y0, x1, y1, lw, px)
	}
	requireSamePixels(t, "rect+line", tiled, flat)
}

// TestRenderParityLineSweep draws lines of widths 0–9 (and two widths
// past the ring drawLine keeps on the stack) in both directions into a
// 150×100 image, whose tile seams sit at x = 64 and 128 and y = 64 and
// whose bottom tile row is partial. Endpoints fall inside the image or
// off it on every side. Each batch of four is drawn forwards and then
// reversed, each time into a cleared image, so that no stray pixel is
// painted over before the comparison.
func TestRenderParityLineSweep(t *testing.T) {
	const w, h = 150, 100
	rng := rand.New(rand.NewSource(8))
	coord := func(size int) int {
		switch rng.Intn(4) {
		case 0:
			return -1 - rng.Intn(40) // off the low side
		case 1:
			return size + rng.Intn(40) // off the high side
		default:
			return rng.Intn(size)
		}
	}
	tiled, flat := newImage(w, h), flatimg.New(w, h)
	for _, lw := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 24} {
		segs := [][4]int{
			{0, 64, w - 1, 64}, {64, 0, 64, h - 1}, {127, -5, 129, h + 5}, // along and across seams
			{-10, h - 1, w + 10, h - 2}, {3, 63, 140, 65}, {-20, -20, w + 20, h + 20}, // the partial row, diagonals
			{-30, 10, -2, 90}, {w + 1, -8, w + 30, h + 8}, {10, -30, 140, -2}, {5, h + 1, 145, h + 30}, // wholly off one side
			{7, 9, 7, 9}, // a single point
		}
		for i := 0; i < 100; i++ {
			segs = append(segs, [4]int{coord(w), coord(h), coord(w), coord(h)})
		}
		for i := 0; i < len(segs); i += 4 {
			batch := segs[i:min(i+4, len(segs))]
			for _, back := range []bool{false, true} {
				bg := rng.Uint32() & 0xffffff
				tiled.fillRect(0, 0, w, h, bg)
				flat.FillRect(0, 0, w, h, bg)
				for _, sg := range batch {
					if back {
						sg = [4]int{sg[2], sg[3], sg[0], sg[1]}
					}
					px := rng.Uint32() & 0xffffff
					tiled.drawLine(sg[0], sg[1], sg[2], sg[3], lw, px)
					flat.DrawLine(sg[0], sg[1], sg[2], sg[3], lw, px)
				}
				requireSamePixels(t, fmt.Sprintf("lw %d, segments %v, reversed %v", lw, batch, back), tiled, flat)
			}
		}
	}
}

func TestRenderParityFillPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tiled := newImage(220, 180)
	flat := flatimg.New(220, 180)
	for i := 0; i < 80; i++ {
		n := 3 + rng.Intn(6)
		pts := make([]xproto.Point, n)
		xs, ys := make([]int, n), make([]int, n)
		for j := range pts {
			x, y := rng.Intn(280)-30, rng.Intn(240)-30
			pts[j] = xproto.Point{X: int16(x), Y: int16(y)}
			xs[j], ys[j] = x, y
		}
		px := rng.Uint32() & 0xffffff
		tiled.fillPoly(pts, px)
		flat.FillPoly(xs, ys, px)
	}
	requireSamePixels(t, "fillPoly", tiled, flat)

	// Polygons across the tile seams at 64 and 128 and into the partial
	// bottom tile row: a triangle and a star around tile corners, and a
	// comb whose rows cross more edges than fillPoly's stack buffer holds.
	polys := [][]int{
		{50, 40, 90, 70, 40, 100},
		{128, 40, 136, 120, 200, 128, 136, 136, 128, 179, 120, 136, 56, 128, 120, 120},
	}
	comb := []int{20, 175}
	for i := 0; i < 12; i++ {
		comb = append(comb, 20+i*16, 60, 28+i*16, 150)
	}
	comb = append(comb, 212, 175)
	polys = append(polys, comb)
	for i, poly := range polys {
		pts := make([]xproto.Point, len(poly)/2)
		xs, ys := make([]int, len(pts)), make([]int, len(pts))
		for j := range pts {
			xs[j], ys[j] = poly[2*j], poly[2*j+1]
			pts[j] = xproto.Point{X: int16(xs[j]), Y: int16(ys[j])}
		}
		px := 0x102030 * uint32(i+1)
		tiled.fillPoly(pts, px)
		flat.FillPoly(xs, ys, px)
	}
	requireSamePixels(t, "fillPoly across seams", tiled, flat)
}

func TestRenderParityText(t *testing.T) {
	tiled := newImage(300, 120)
	flat := flatimg.New(300, 120)
	for i, s := range []string{"Hello, Tk!", "wish% button .b", "\x01odd\x7fbytes", ""} {
		y := 20 + i*20
		openFont("fixed").drawString(tiled, 4, y, s, 0xffffff)
		flat.DrawString(4, y, s, 0xffffff, 1)
	}
	// Scale-2 "large" variant, including glyphs clipped by every edge.
	openFont("big24").drawString(tiled, -7, 30, "Edge", 0x33ccff)
	flat.DrawString(-7, 30, "Edge", 0x33ccff, 2)
	openFont("big24").drawString(tiled, 260, 118, "Clip", 0xff8800)
	flat.DrawString(260, 118, "Clip", 0xff8800, 2)
	requireSamePixels(t, "text", tiled, flat)
}

func TestRenderParityCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	paint := func(tiled *image, flat *flatimg.Image, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			x, y := r.Intn(tiled.w), r.Intn(tiled.h)
			w, h := r.Intn(60), r.Intn(40)
			px := r.Uint32() & 0xffffff
			tiled.fillRect(x, y, w, h, px)
			flat.FillRect(x, y, w, h, px)
		}
	}
	srcT, srcF := newImage(180, 140), flatimg.New(180, 140)
	dstT, dstF := newImage(200, 160), flatimg.New(200, 160)
	paint(srcT, srcF, 50)
	paint(dstT, dstF, 51)

	// Cross-image copies with wild offsets: clipping must agree exactly.
	for i := 0; i < 60; i++ {
		sx, sy := rng.Intn(260)-60, rng.Intn(220)-60
		dx, dy := rng.Intn(280)-60, rng.Intn(240)-60
		w, h := rng.Intn(150), rng.Intn(120)
		dstT.copyFrom(srcT, sx, sy, dx, dy, w, h)
		dstF.CopyFrom(srcF, sx, sy, dx, dy, w, h)
	}
	requireSamePixels(t, "copy cross", dstT, dstF)

	// Overlapping self-copies: all four diagonal shift directions, pure
	// vertical both ways (the direct row-walk paths), and pure
	// horizontal both ways (the scratch-row path).
	for _, sh := range [][2]int{{13, 9}, {-13, 9}, {13, -9}, {-17, -11}, {0, 16}, {0, -16}, {21, 0}, {-21, 0}} {
		selfT, selfF := newImage(150, 130), flatimg.New(150, 130)
		paint(selfT, selfF, 60)
		selfT.copyFrom(selfT, 20, 20, 20+sh[0], 20+sh[1], 100, 90)
		selfF.CopyFrom(selfF, 20, 20, 20+sh[0], 20+sh[1], 100, 90)
		requireSamePixels(t, fmt.Sprintf("self-copy %+d%+d", sh[0], sh[1]), selfT, selfF)
	}
}

// TestRenderParityResize replays a window resize — a new backing store
// painted with the background — against flat Resize + FillRect, then
// draws across the trimmed bottom tile row of each size.
func TestRenderParityResize(t *testing.T) {
	flat := flatimg.New(100, 90)
	flat.FillRect(10, 12, 45, 30, 0xff0055)
	for _, sz := range [][2]int{{170, 40}, {64, 64}, {65, 129}, {30, 200}, {1, 1}} {
		tiled := newFilledImage(sz[0], sz[1], 0x224488, nil)
		flat.Resize(sz[0], sz[1])
		flat.FillRect(0, 0, sz[0], sz[1], 0x224488)
		tiled.fillRect(10, sz[1]-7, 45, 30, 0xff0055)
		flat.FillRect(10, sz[1]-7, 45, 30, 0xff0055)
		tiled.drawLine(0, sz[1]-1, sz[0]-1, 0, 1, 0x00ff00)
		flat.DrawLine(0, sz[1]-1, sz[0]-1, 0, 1, 0x00ff00)
		requireSamePixels(t, fmt.Sprintf("resize %dx%d", sz[0], sz[1]), tiled, flat)
	}
}

// TestRenderParityRandomOps drives one image through a seeded random
// mix of every primitive and checks it against flatimg after each step.
// Full-tile and full-image fills make tiles solid, partial writes give
// them slabs, snapshots share both kinds, and resizes to heights that
// are not multiples of 64 trim the bottom tile row, so every transition
// between solid, owned and shared tiles is exercised. A resize, and a
// drop of the image for a new one of its size, release the old image's
// slabs as the server does, so later writes take recycled slabs; the
// snapshots taken before are checked at the end.
func TestRenderParityRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tiled, flat := newImage(150, 100), flatimg.New(150, 100)
	src, srcF := newFilledImage(70, 50, 0x445566, nil), flatimg.New(70, 50)
	srcF.FillRect(0, 0, 70, 50, 0x445566)
	type snap struct {
		im   *image
		want *flatimg.Image
	}
	var snaps []snap
	for step := 0; step < 400; step++ {
		px := rng.Uint32() & 0xffffff
		x, y := rng.Intn(flat.W+40)-20, rng.Intn(flat.H+40)-20
		var what string
		switch rng.Intn(11) {
		case 0:
			what = "tile fill"
			tx, ty := rng.Intn(tiled.tw), rng.Intn(tiled.th)
			tiled.fillRect(tx*tileSize, ty*tileSize, tileSize, tileSize, px)
			flat.FillRect(tx*tileSize, ty*tileSize, tileSize, tileSize, px)
		case 1:
			what = "partial fill"
			w, h := rng.Intn(90), rng.Intn(70)
			tiled.fillRect(x, y, w, h, px)
			flat.FillRect(x, y, w, h, px)
		case 2:
			what = "image fill"
			tiled.fillRect(-3, -3, flat.W+6, flat.H+6, px)
			flat.FillRect(-3, -3, flat.W+6, flat.H+6, px)
		case 3:
			what = "line"
			x1, y1, lw := rng.Intn(flat.W), rng.Intn(flat.H), 1+rng.Intn(3)
			tiled.drawLine(x, y, x1, y1, lw, px)
			flat.DrawLine(x, y, x1, y1, lw, px)
		case 4:
			what = "text"
			openFont("fixed").drawString(tiled, x, y, "tile", px)
			flat.DrawString(x, y, "tile", px, 1)
		case 5:
			what = "copy from solid source"
			tiled.copyFrom(src, 5, 3, x, y, 60, 45)
			flat.CopyFrom(srcF, 5, 3, x, y, 60, 45)
		case 6:
			what = "overlapping self-copy"
			dx, dy := rng.Intn(41)-20, rng.Intn(41)-20
			tiled.copyFrom(tiled, x, y, x+dx, y+dy, 80, 60)
			flat.CopyFrom(flat, x, y, x+dx, y+dy, 80, 60)
		case 7:
			what = "copy from snapshot"
			sn := tiled.snapshot()
			want := flatimg.New(flat.W, flat.H)
			want.CopyFrom(flat, 0, 0, 0, 0, flat.W, flat.H)
			snaps = append(snaps, snap{sn, want})
			tiled.copyFrom(sn, 0, 0, x, y, flat.W, flat.H)
			flat.CopyFrom(want, 0, 0, x, y, flat.W, flat.H)
		case 8:
			what = "snapshot then write"
			want := flatimg.New(flat.W, flat.H)
			want.CopyFrom(flat, 0, 0, 0, 0, flat.W, flat.H)
			snaps = append(snaps, snap{tiled.snapshot(), want})
			tiled.fillRect(x, y, 1, 1, px)
			flat.Set(x, y, px)
		case 9:
			what = "resize"
			w, h := 1+rng.Intn(200), 1+rng.Intn(200)
			if h%tileSize == 0 {
				h++
			}
			tiled.release()
			tiled = newFilledImage(w, h, px, nil)
			flat.Resize(w, h)
			flat.FillRect(0, 0, w, h, px)
		case 10:
			what = "drop and recreate"
			tiled.release()
			tiled = newFilledImage(flat.W, flat.H, px, nil)
			flat.FillRect(0, 0, flat.W, flat.H, px)
		}
		requireSamePixels(t, fmt.Sprintf("step %d (%s)", step, what), tiled, flat)
	}
	for i, sn := range snaps {
		requireSamePixels(t, fmt.Sprintf("snapshot %d", i), sn.im, sn.want)
	}
}

// TestSnapshotCopyOnWrite: a snapshot must keep the pixels it had at
// snapshot time while the original keeps mutating — the heart of the
// lock-free screenshot path — whether its tiles are solid or have slabs.
func TestSnapshotCopyOnWrite(t *testing.T) {
	im := newImage(130, 130)
	im.fillRect(0, 0, 130, 130, 0x111111)
	snap := im.snapshot()
	im.fillRect(0, 0, 130, 130, 0x999999)
	im.drawLine(0, 0, 129, 129, 3, 0xff0000)
	for _, pt := range [][2]int{{0, 0}, {64, 64}, {129, 129}, {5, 100}} {
		if got := snap.get(pt[0], pt[1]); got != 0x111111 {
			t.Errorf("snapshot pixel (%d,%d) = %06x, want 111111", pt[0], pt[1], got)
		}
	}
	if got := im.get(64, 64); got != 0xff0000 {
		t.Errorf("original pixel (64,64) = %06x, want ff0000 after post-snapshot writes", got)
	}
	// A second snapshot sees the new content, and the two snapshots are
	// independent.
	snap2 := im.snapshot()
	if got := snap2.get(2, 100); got != 0x999999 {
		t.Errorf("second snapshot pixel = %06x, want 999999", got)
	}
	if got := snap.get(2, 100); got != 0x111111 {
		t.Errorf("first snapshot disturbed: %06x, want 111111", got)
	}

	// Solid tiles and the slab rules for full fills: a solid tile or a
	// shared slab becomes solid (the snapshot keeps the old slab,
	// nothing is cloned), while a slab the tile owns is filled in place,
	// so repainting a window does not reallocate its slabs.
	m := newRenderMetrics(obs.NewRegistry())
	fi := newFilledImage(100, 70, 0x111111, m)
	for i := range fi.tiles {
		if fi.tiles[i].px != nil {
			t.Fatalf("tile %d of a filled image has a slab", i)
		}
	}
	solidSnap := fi.snapshot()
	fi.fillRect(3, 3, 10, 10, 0x222222) // tile 0 gets a slab
	owned := fi.tiles[0].px
	if owned == nil || len(owned) != tileSize*tileSize {
		t.Fatalf("partial write to a full-height tile: slab len %d, want %d", len(owned), tileSize*tileSize)
	}
	if n := len(fi.tiles[fi.tw].px); n != 0 {
		t.Fatalf("untouched bottom tile has a slab of %d pixels", n)
	}
	fi.fillRect(5, 66, 1, 1, 0x222222)
	if n := len(fi.tiles[fi.tw].px); n != (70-tileSize)*tileSize {
		t.Fatalf("bottom-row slab holds %d pixels, want %d (6 rows)", n, (70-tileSize)*tileSize)
	}

	fi.fillRect(0, 0, 100, 70, 0x333333)
	if &fi.tiles[0].px[0] != &owned[0] {
		t.Fatal("full fill of an owned slab replaced it instead of filling in place")
	}
	slabSnap := fi.snapshot()
	cow := m.tilesCOW.Value()
	fi.fillRect(0, 0, 100, 70, 0x444444)
	if fi.tiles[0].px != nil {
		t.Fatal("full fill of a shared slab kept a slab")
	}
	if got := m.tilesCOW.Value(); got != cow {
		t.Fatalf("full fill of shared slabs cloned %d of them", got-cow)
	}
	for _, c := range []struct {
		im   *image
		x, y int
		want uint32
	}{
		{solidSnap, 5, 5, 0x111111}, {solidSnap, 99, 69, 0x111111},
		{slabSnap, 5, 5, 0x333333}, {slabSnap, 5, 66, 0x333333},
		{fi, 5, 5, 0x444444}, {fi, 99, 69, 0x444444},
	} {
		if got := c.im.get(c.x, c.y); got != c.want {
			t.Errorf("pixel (%d,%d) = %06x, want %06x", c.x, c.y, got, c.want)
		}
	}

	// Destroying a window gives back the slabs it owns, not the ones a
	// snapshot shares: windows of its height drawn after it take
	// recycled slabs, and the snapshot still reads the old pixels.
	s := New(200, 200)
	defer s.Close()
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gc := func(fg uint32) xproto.ID {
		return d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: fg})
	}
	old := d.CreateWindow(d.Root, 0, 0, 130, 70, 0, xclient.WindowAttributes{Background: 0x111111})
	d.FillRectangle(old, gc(0xabcdef), 3, 3, 124, 64)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	winSnap := s.window(old).img.snapshot()
	s.mu.Unlock()
	// Tile 0 now owns a clone; the other tiles' slabs are shared.
	d.FillRectangle(old, gc(0x222222), 0, 0, 2, 2)
	d.DestroyWindow(old)
	for i := 0; i < 4; i++ {
		w := d.CreateWindow(d.Root, 0, 0, 130, 70, 0, xclient.WindowAttributes{Background: 0x333333})
		d.FillRectangle(w, gc(0x444444), 1, 1, 128, 68)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x, y int
		want uint32
	}{{0, 0, 0x111111}, {3, 3, 0xabcdef}, {64, 3, 0xabcdef}, {126, 66, 0xabcdef}, {129, 69, 0x111111}, {5, 68, 0x111111}} {
		if got := winSnap.get(c.x, c.y); got != c.want {
			t.Errorf("snapshot of the destroyed window: pixel (%d,%d) = %06x, want %06x", c.x, c.y, got, c.want)
		}
	}
}

// TestRecycledSlabsCarryNoPixels: slabs pass between servers in one
// process, but a slab taken from the pool is filled before it is read.
// Server A draws a pattern and destroys the window; server B's window
// of the same size, with another background and one line drawn, shows
// no pixel of the pattern.
func TestRecycledSlabsCarryNoPixels(t *testing.T) {
	const pattern, bg, line = 0xa5a5a5, 0x000080, 0xffff00
	open := func(s *Server) *xclient.Display {
		d, err := xclient.Open(s.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	for _, sz := range [][2]int{{130, 70}, {64, 64}, {40, 25}} {
		a, b := New(200, 200), New(200, 200)
		defer a.Close()
		defer b.Close()
		da, db := open(a), open(b)
		w := da.CreateWindow(da.Root, 0, 0, sz[0], sz[1], 0, xclient.WindowAttributes{Background: 0x123456})
		gc := da.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: pattern})
		for y := 0; y < sz[1]; y += 2 {
			da.FillRectangle(w, gc, 0, y, sz[0], 1)
		}
		if err := da.Sync(); err != nil {
			t.Fatal(err)
		}
		da.DestroyWindow(w)
		if err := da.Sync(); err != nil {
			t.Fatal(err)
		}
		v := db.CreateWindow(db.Root, 0, 0, sz[0], sz[1], 0, xclient.WindowAttributes{Background: bg, OverrideRedirect: true})
		db.MapWindow(v)
		db.DrawLine(v, db.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: line}), 0, 0, sz[0]-1, sz[1]-1)
		shot, err := db.Screenshot(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+2 < len(shot.Pixels); i += 3 {
			px := uint32(shot.Pixels[i])<<16 | uint32(shot.Pixels[i+1])<<8 | uint32(shot.Pixels[i+2])
			if px != bg && px != line {
				t.Fatalf("%dx%d: pixel %d of server B's window is %06x, want only %06x and %06x", sz[0], sz[1], i/3, px, bg, line)
			}
		}
	}
}

// flatWin mirrors a server window for replaying the documented
// composite algorithm over flatimg references.
type flatWin struct {
	x, y, w, h, bw int
	border         uint32
	img            *flatimg.Image
	children       []*flatWin
	topLevel       bool // parent is root and not override-redirect
	title          string
}

// flatComposite replays composite()'s exact paint order: border,
// content, children bottom-to-top, then title-bar decoration.
func flatComposite(dst *flatimg.Image, w *flatWin, ox, oy int) {
	if w.bw > 0 {
		dst.FillRect(ox-w.bw, oy-w.bw, w.w+2*w.bw, w.bw, w.border)
		dst.FillRect(ox-w.bw, oy+w.h, w.w+2*w.bw, w.bw, w.border)
		dst.FillRect(ox-w.bw, oy, w.bw, w.h, w.border)
		dst.FillRect(ox+w.w, oy, w.bw, w.h, w.border)
	}
	dst.CopyFrom(w.img, 0, 0, ox, oy, w.w, w.h)
	for _, ch := range w.children {
		flatComposite(dst, ch, ox+ch.x+ch.bw, oy+ch.y+ch.bw)
	}
	if w.topLevel {
		dst.FillRect(ox-w.bw, oy-w.bw-titleBarHeight, w.w+2*w.bw, titleBarHeight, titleBarColor)
		dst.DrawRect(ox-w.bw, oy-w.bw-titleBarHeight, w.w+2*w.bw, titleBarHeight, 1, frameColor)
		dst.DrawString(ox+4, oy-w.bw-titleBarHeight+13, w.title, titleTextColor, 1)
	}
}

func requireShotMatches(t *testing.T, tag string, rep xproto.ScreenshotReply, want *flatimg.Image) {
	t.Helper()
	if int(rep.Width) != want.W || int(rep.Height) != want.H {
		t.Fatalf("%s: shot %dx%d, want %dx%d", tag, rep.Width, rep.Height, want.W, want.H)
	}
	if len(rep.Pixels) != want.W*want.H*3 {
		t.Fatalf("%s: payload %d bytes, want %d", tag, len(rep.Pixels), want.W*want.H*3)
	}
	bad := 0
	for i, px := range want.Pix {
		got := uint32(rep.Pixels[i*3])<<16 | uint32(rep.Pixels[i*3+1])<<8 | uint32(rep.Pixels[i*3+2])
		if got != px {
			t.Errorf("%s: pixel %d (%d,%d) = %06x, want %06x", tag, i, i%want.W, i/want.W, got, px)
			if bad++; bad > 8 {
				t.Fatalf("%s: too many mismatches", tag)
			}
		}
	}
}

// TestScreenshotCompositeParity builds a scene through the client
// library — decorated top-levels, a nested child, an override-redirect
// popup, pixmap CopyArea, text — and checks both the root screenshot
// and a single-window screenshot byte-for-byte against the seed
// composite algorithm replayed over flat reference images.
func TestScreenshotCompositeParity(t *testing.T) {
	s := New(320, 240)
	defer s.Close()
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	root := d.Root

	gc := func(fg uint32) xproto.ID {
		return d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: fg})
	}

	// Root drawing.
	rootF := flatimg.New(320, 240)
	rootF.FillRect(0, 0, 320, 240, 0x5f9ea0) // root img prefill
	d.FillRectangle(root, gc(0x204020), 250, 180, 60, 50)
	rootF.FillRect(250, 180, 60, 50, 0x204020)

	// Pixmap painted and blitted into window A below.
	pm := d.CreatePixmap(40, 30)
	pmF := flatimg.New(40, 30)
	d.FillRectangle(pm, gc(0xcc3366), 0, 0, 40, 30)
	pmF.FillRect(0, 0, 40, 30, 0xcc3366)
	d.DrawLine(pm, gc(0xffffff), 0, 0, 39, 29)
	pmF.DrawLine(0, 0, 39, 29, 1, 0xffffff)

	// Top-level A: decorated, bordered, with text, poly, and the blit.
	a := d.CreateWindow(root, 30, 40, 120, 80, 3, xclient.WindowAttributes{Background: 0xddeeff, Border: 0x224466})
	aF := flatimg.New(120, 80)
	aF.FillRect(0, 0, 120, 80, 0xddeeff)
	d.ChangeProperty(a, xproto.AtomWMName, xproto.AtomString, []byte("alpha"))
	d.MapWindow(a)
	d.FillRectangles(a, gc(0x884400), []xproto.Rect{{X: 5, Y: 5, W: 30, H: 20}, {X: 100, Y: 60, W: 40, H: 40}})
	aF.FillRect(5, 5, 30, 20, 0x884400)
	aF.FillRect(100, 60, 40, 40, 0x884400)
	d.FillPolygon(a, gc(0x006600), []xproto.Point{{X: 60, Y: 8}, {X: 90, Y: 40}, {X: 40, Y: 46}})
	aF.FillPoly([]int{60, 90, 40}, []int{8, 40, 46}, 0x006600)
	d.DrawString(a, gc(0x000000), 8, 70, "widget")
	aF.DrawString(8, 70, "widget", 0x000000, 1)
	d.CopyArea(pm, a, gc(0), 3, 2, 70, 10, 30, 25)
	aF.CopyFrom(pmF, 3, 2, 70, 10, 30, 25)

	// Child B nested in A.
	b := d.CreateWindow(a, 10, 8, 50, 40, 2, xclient.WindowAttributes{Background: 0xffcc00, Border: 0x990000})
	bF := flatimg.New(50, 40)
	bF.FillRect(0, 0, 50, 40, 0xffcc00)
	d.MapWindow(b)
	d.DrawLine(b, gc(0x0000aa), 2, 2, 47, 37)
	bF.DrawLine(2, 2, 47, 37, 1, 0x0000aa)

	// Top-level C: override-redirect, so no decoration.
	c := d.CreateWindow(root, 160, 30, 60, 50, 1, xclient.WindowAttributes{Background: 0x304050, Border: 0x000000, OverrideRedirect: true})
	cF := flatimg.New(60, 50)
	cF.FillRect(0, 0, 60, 50, 0x304050)
	d.MapWindow(c)
	d.DrawRectangle(c, gc(0xffff00), 5, 5, 50, 40)
	cF.DrawRect(5, 5, 50, 40, 1, 0xffff00)

	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	winA := &flatWin{x: 30, y: 40, w: 120, h: 80, bw: 3, border: 0x224466, img: aF, topLevel: true, title: "alpha",
		children: []*flatWin{{x: 10, y: 8, w: 50, h: 40, bw: 2, border: 0x990000, img: bF}}}
	winC := &flatWin{x: 160, y: 30, w: 60, h: 50, bw: 1, img: cF}

	// Root screenshot: background fill, root content, children
	// bottom-to-top in creation order (A then C).
	wantRoot := flatimg.New(320, 240)
	wantRoot.FillRect(0, 0, 320, 240, 0x5f9ea0)
	wantRoot.CopyFrom(rootF, 0, 0, 0, 0, 320, 240)
	flatComposite(wantRoot, winA, winA.x+winA.bw, winA.y+winA.bw)
	flatComposite(wantRoot, winC, winC.x+winC.bw, winC.y+winC.bw)
	rep, err := d.Screenshot(xproto.None)
	if err != nil {
		t.Fatal(err)
	}
	requireShotMatches(t, "root shot", rep, wantRoot)

	// Single-window screenshot of A: content plus border plus title bar.
	wantA := flatimg.New(120+2*3, 80+2*3+titleBarHeight)
	flatComposite(wantA, winA, 3, 3+titleBarHeight)
	repA, err := d.Screenshot(a)
	if err != nil {
		t.Fatal(err)
	}
	requireShotMatches(t, "window shot", repA, wantA)
}

// TestRenderStressPaintersVsScreenshots hammers windows and pixmaps
// from several client connections while other connections continuously
// take root and window screenshots. Each painter also keeps replacing a
// second window: it destroys it, whose slabs go back to the pool, and
// creates and draws a new one of its size. Under -race this checks the
// copy-on-write snapshot discipline: painters cloning shared tiles and
// taking recycled slabs while composition reads the snapshots with no
// lock held.
func TestRenderStressPaintersVsScreenshots(t *testing.T) {
	s := New(480, 360)
	defer s.Close()

	const painters = 4
	wins := make([]xproto.ID, painters)
	displays := make([]*xclient.Display, painters)
	for i := range displays {
		d, err := xclient.Open(s.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		displays[i] = d
		wins[i] = d.CreateWindow(d.Root, 20+i*90, 30, 150, 120, 2,
			xclient.WindowAttributes{Background: uint32(0x101010 * (i + 1))})
		d.ChangeProperty(wins[i], xproto.AtomWMName, xproto.AtomString, []byte(fmt.Sprintf("painter-%d", i)))
		d.MapWindow(wins[i])
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < painters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, win := displays[i], wins[i]
			gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: uint32(0x3377aa + i)})
			pm := d.CreatePixmap(64, 64)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			var churn xproto.ID
			for n := 0; n < 150; n++ {
				if n%10 == 0 {
					if churn != 0 {
						d.DestroyWindow(churn)
					}
					churn = d.CreateWindow(d.Root, 40+i*90, 200, 80, 70, 1,
						xclient.WindowAttributes{Background: uint32(0x202020 * (i + 1))})
					d.MapWindow(churn)
				}
				d.FillRectangle(churn, gc, rng.Intn(40), rng.Intn(30), 40, 40)
				rects := make([]xproto.Rect, 16)
				for j := range rects {
					rects[j] = xproto.Rect{X: int16(rng.Intn(150)), Y: int16(rng.Intn(120)),
						W: uint16(rng.Intn(60)), H: uint16(rng.Intn(40))}
				}
				d.FillRectangles(win, gc, rects)
				d.FillRectangle(pm, gc, 0, 0, 64, 64)
				d.CopyArea(pm, win, gc, 0, 0, rng.Intn(90), rng.Intn(60), 64, 64)
				d.DrawString(win, gc, 4, 100, "stress")
				if n%25 == 0 {
					if err := d.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := d.Sync(); err != nil {
				t.Error(err)
			}
		}(i)
	}

	const readers = 3
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := xclient.Open(s.ConnectPipe())
			if err != nil {
				t.Error(err)
				return
			}
			defer d.Close()
			for n := 0; n < 30; n++ {
				target := xproto.ID(xproto.None)
				if n%2 == 1 {
					target = wins[n%painters]
				}
				rep, err := d.Screenshot(target)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rep.Pixels) != int(rep.Width)*int(rep.Height)*3 {
					t.Errorf("reader %d: short payload %d for %dx%d", i, len(rep.Pixels), rep.Width, rep.Height)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestUndrawnWindowsHoldNoSlabs: windows that are created, resized and
// mapped but never drawn hold no pixel slabs, and neither does the
// root — only their background colours.
func TestUndrawnWindowsHoldNoSlabs(t *testing.T) {
	s := New(1024, 768)
	defer s.Close()
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	top := d.CreateWindow(d.Root, 0, 0, 1, 1, 0, xclient.WindowAttributes{Background: 0xd9d9d9})
	for i := 0; i < 200; i++ {
		w := d.CreateWindow(top, 0, i*25, 1, 1, 2, xclient.WindowAttributes{Background: 0xb0c4de, EventMask: xproto.ExposureMask})
		d.ResizeWindow(w, 90+i%7, 25)
		d.MapWindow(w)
	}
	d.ResizeWindow(top, 100, 5000)
	d.MapWindow(top)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.res) != 202 {
		t.Fatalf("server has %d resources, want 202 windows", len(s.res))
	}
	for id, r := range s.res {
		w := r.(*window)
		for i := range w.img.tiles {
			if w.img.tiles[i].px != nil {
				t.Fatalf("window %d (%dx%d): tile %d has a slab", id, w.w, w.h, i)
			}
		}
	}
}
