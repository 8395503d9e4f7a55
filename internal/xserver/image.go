package xserver

import (
	"math/bits"

	"repro/internal/xproto"
)

// image is a server-side pixel buffer: the backing store of a window or
// pixmap. Pixels are packed 0x00RRGGBB.
//
// Storage is tiled: the pixel area is carved into fixed 64×64 tiles,
// each row-major within the tile, so every draw primitive works on
// contiguous spans no longer than a tile row and a screenshot can
// snapshot the buffer by aliasing slab pointers instead of copying
// pixels (copy-on-write: see snapshot and writableTile). A tile holds
// no slab while it is solid — one colour, as every window is between
// a background fill and its first non-uniform drawing — and gets one
// on its first partial write. Slabs of the bottom tile row hold only
// the rows inside the image. Each tile carries a dirty flag (damage
// since the last snapshot) and a shared flag (a snapshot aliases the
// slab; the next writer clones it first).
//
// Concurrency: an image has no lock of its own. All tile state — slab
// pointers, dirty and shared flags — is guarded by the
// server's mu, exactly like the pixels were before tiling. A snapshot
// taken under that lock is immutable afterwards and may be read with no
// lock at all: writers never mutate a shared slab, they replace it.
type image struct {
	w, h   int
	tw, th int    // tiles across / down
	tiles  []tile // tw*th tiles, row-major
	m      *renderMetrics
}

const (
	tileShift = 6
	tileSize  = 1 << tileShift // 64×64 pixels, at most 16KiB per slab
	tileMask  = tileSize - 1
)

// tile is one 64×64 cell plus its damage-tracking state.
type tile struct {
	px     []uint32 // nil while solid; else the in-image rows × 64 pixels, row-major
	solid  uint32   // the value of every pixel while px is nil
	shared bool     // a snapshot aliases px: clone before writing
	dirty  bool     // written since the last snapshot
}

func newImage(w, h int) *image { return newImageM(w, h, nil) }

// newImageM creates a black image reporting damage into m (nil for an
// unmetered image, e.g. a screenshot compose target or a test buffer).
// Every tile starts solid, so no slab is allocated yet.
func newImageM(w, h int, m *renderMetrics) *image {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	im := &image{
		w: w, h: h,
		tw: (w + tileMask) >> tileShift,
		th: (h + tileMask) >> tileShift,
		m:  m,
	}
	im.tiles = make([]tile, im.tw*im.th)
	return im
}

// newFilledImage creates a w×h image painted pixel: a window's backing
// store when it is created or resized, since the server paints the
// background over all of it. Every tile is solid and damaged once.
func newFilledImage(w, h int, pixel uint32, m *renderMetrics) *image {
	im := newImageM(w, h, m)
	im.fillRect(0, 0, im.w, im.h, pixel)
	return im
}

// touch records a write to t: a clean tile is marked dirty.
func (im *image) touch(t *tile) {
	if !t.dirty {
		t.dirty = true
		if im.m != nil {
			im.m.tilesDamaged.Inc()
		}
	}
}

// writableTile returns tile (tx, ty) ready for writing: a solid tile
// gets a slab filled with its colour, a slab shared with a snapshot is
// cloned first (the snapshot keeps the old pixels), and the write is
// recorded by touch.
func (im *image) writableTile(tx, ty int) *tile {
	t := &im.tiles[ty*im.tw+tx]
	switch {
	case t.px == nil:
		t.px = make([]uint32, min(tileSize, im.h-ty<<tileShift)<<tileShift)
		fillSpan(t.px, t.solid)
	case t.shared:
		t.px = append([]uint32(nil), t.px...)
		if im.m != nil {
			im.m.tilesCOW.Inc()
		}
	}
	t.shared = false
	im.touch(t)
	return t
}

// snapshot returns a read-only copy-on-write view of the image: the
// returned image aliases every slab and marks the original's tiles
// shared, so the caller may read the snapshot with no lock held while
// painters keep drawing (their first write to a shared tile clones it).
// Dirty flags reset here, making the damage counters mean "tiles
// touched since the last export". Must be called with the owning
// drawable's lock held; the snapshot itself must never be drawn into.
func (im *image) snapshot() *image {
	sn := &image{w: im.w, h: im.h, tw: im.tw, th: im.th, tiles: make([]tile, len(im.tiles))}
	for i := range im.tiles {
		t := &im.tiles[i]
		t.shared = true
		t.dirty = false
		sn.tiles[i] = tile{px: t.px, solid: t.solid}
	}
	if im.m != nil {
		im.m.tilesSnapshot.Add(uint64(len(im.tiles)))
	}
	return sn
}

// damagedTiles counts tiles written since the last snapshot.
func (im *image) damagedTiles() int {
	n := 0
	for i := range im.tiles {
		if im.tiles[i].dirty {
			n++
		}
	}
	return n
}

func (im *image) get(x, y int) uint32 {
	if x < 0 || y < 0 || x >= im.w || y >= im.h {
		return 0
	}
	t := &im.tiles[(y>>tileShift)*im.tw+(x>>tileShift)]
	if t.px == nil {
		return t.solid
	}
	return t.px[(y&tileMask)<<tileShift|(x&tileMask)]
}

// shortSpan is the longest span fillSpan stores pixel by pixel: below
// it a memmove's call costs more than the stores. BenchmarkDrawLines,
// whose wide-line rows are mostly this short, ran about 10% faster with
// any limit from 8 to 64 than with none; 16 sits in that flat range.
const shortSpan = 16

// fillSpan fills a contiguous span: a short one by plain stores, a
// longer one by doubling copies (one store, then log2(n) memmoves).
func fillSpan(s []uint32, pixel uint32) {
	if len(s) <= shortSpan {
		for i := range s {
			s[i] = pixel
		}
		return
	}
	s[0] = pixel
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// fillRect fills a rectangle, clipped to the image, one tile at a time:
// the first covered row of each tile is filled, the rest are row copies
// of it.
func (im *image) fillRect(x, y, w, h int, pixel uint32) {
	x0, y0 := max(x, 0), max(y, 0)
	x1, y1 := min(x+w, im.w), min(y+h, im.h)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	for ty := y0 >> tileShift; ty <= (y1-1)>>tileShift; ty++ {
		im.fillTileRow(ty, x0, y0, x1, y1, pixel)
	}
}

// fillTileRow fills the part of clipped rect [x0,x1)×[y0,y1) that lands
// in tile row ty. A tile whose whole in-image area is covered becomes
// solid unless it owns its slab: an owned slab is filled in place, so
// a window repainted over and over keeps one slab instead of dropping
// and reallocating it.
func (im *image) fillTileRow(ty, x0, y0, x1, y1 int, pixel uint32) {
	ry0 := max(y0, ty<<tileShift)
	ry1 := min(y1, (ty+1)<<tileShift)
	allRows := ry0 == ty<<tileShift && ry1 == min(im.h, (ty+1)<<tileShift)
	for tx := x0 >> tileShift; tx <= (x1-1)>>tileShift; tx++ {
		cx0 := max(x0, tx<<tileShift)
		cx1 := min(x1, (tx+1)<<tileShift)
		t := &im.tiles[ty*im.tw+tx]
		if allRows && (t.px == nil || t.shared) && cx0 == tx<<tileShift && cx1 == min(im.w, (tx+1)<<tileShift) {
			t.px, t.solid, t.shared = nil, pixel, false
			im.touch(t)
			continue
		}
		if t.px == nil && t.solid == pixel {
			// A partial fill in a solid tile's own colour changes no
			// pixel: no slab, no damage.
			continue
		}
		t = im.writableTile(tx, ty)
		if cx1-cx0 == tileSize {
			// Full tile width: the covered rows are one contiguous
			// block (rows are adjacent within a slab), so a single
			// doubling fill grows to slab-sized memmoves instead of
			// one 64-pixel copy per row.
			o := (ry0 & tileMask) << tileShift
			fillSpan(t.px[o:o+(ry1-ry0)<<tileShift], pixel)
			continue
		}
		base := (ry0&tileMask)<<tileShift | (cx0 & tileMask)
		first := t.px[base : base+(cx1-cx0)]
		fillSpan(first, pixel)
		for yy := ry0 + 1; yy < ry1; yy++ {
			o := (yy&tileMask)<<tileShift | (cx0 & tileMask)
			copy(t.px[o:o+(cx1-cx0)], first)
		}
	}
}

// fillRects fills a batch of rectangles (one PolyFillRectangle request)
// in order, so later rectangles paint over earlier ones.
func (im *image) fillRects(rects []xproto.Rect, pixel uint32) {
	for _, rc := range rects {
		im.fillRect(int(rc.X), int(rc.Y), int(rc.W), int(rc.H), pixel)
	}
}

// drawRect outlines a rectangle with the given line width.
func (im *image) drawRect(x, y, w, h, lw int, pixel uint32) {
	if lw < 1 {
		lw = 1
	}
	im.fillRect(x, y, w, lw, pixel)      // top
	im.fillRect(x, y+h-lw, w, lw, pixel) // bottom
	im.fillRect(x, y, lw, h, pixel)      // left
	im.fillRect(x+w-lw, y, lw, h, pixel) // right
}

// drawLine draws a 1-pixel Bresenham line from (x0, y0) to (x1, y1),
// thickened for lw > 1 to an lw×lw square at every point, one span per
// row. The walk runs once, in the direction the segment was given: the
// variant is not symmetric, so swapping the endpoints can move pixels.
//
// The walk's points form row-runs, one per y. Along a segment x moves
// one way only, so on each row the squares cover one span: from where
// the walk entered the oldest run whose square reaches that row to
// where it left the newest. A row is final when the walk leaves the
// newest run that reaches it (the last run finishes lw rows), and a
// ring of the last lw entry points holds the rest. Consecutive rows
// with the same span — all of a horizontal or vertical line — share one
// fillRect.
func (im *image) drawLine(x0, y0, x1, y1, lw int, pixel uint32) {
	lw = max(lw, 1)
	r := lw / 2
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	// lead is the offset from a run's y to the row of its square the
	// walk finishes first: the top one going down, the bottom going up.
	lead := -r
	if sy < 0 {
		lead = lw - 1 - r
	}
	// The ring's length is a power of two of at least lw, so a run's
	// slot is its number masked.
	var ringBuf [16]int
	ring := ringBuf[:]
	if lw > len(ring) {
		ring = make([]int, 1<<bits.Len(uint(lw-1)))
	}
	mask := len(ring) - 1

	// The pending rectangle: span [rx0, rx1) on rn rows from ry on, in
	// the walk's direction.
	var rx0, rx1, ry, rn int
	flush := func() {
		if rn > 0 {
			im.fillRect(rx0, min(ry, ry+(rn-1)*sy), rx1-rx0, rn, pixel)
		}
	}
	row := func(y, enter, leave int) {
		xa, xb := min(enter, leave)-r, max(enter, leave)-r+lw
		if rn > 0 && xa == rx0 && xb == rx1 {
			rn++
			return
		}
		flush()
		rx0, rx1, ry, rn = xa, xb, y, 1
	}

	n, err := 0, dx+dy // n numbers the current run; ring[n&mask] is where it was entered
	ring[0] = x0
	for x0 != x1 || y0 != y1 {
		px, py := x0, y0
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
		if y0 != py {
			row(py+lead, ring[max(0, n-lw+1)&mask], px)
			n++
			ring[n&mask] = x0
		}
	}
	for k := 0; k < lw; k++ {
		row(y0+lead+k*sy, ring[max(0, n-lw+1+k)&mask], x0)
	}
	flush()
}

// fillPoly fills a polygon with the even-odd rule using a scanline
// algorithm, one span per pair of crossings. One crossing buffer, on the
// stack for up to 16 crossings, is reused (insertion-sorted in place)
// across rows.
func (im *image) fillPoly(pts []xproto.Point, pixel uint32) {
	if len(pts) < 3 {
		return
	}
	minY, maxY := int(pts[0].Y), int(pts[0].Y)
	for _, p := range pts {
		minY = min(minY, int(p.Y))
		maxY = max(maxY, int(p.Y))
	}
	minY = max(minY, 0)
	maxY = min(maxY, im.h-1)
	var xsBuf [16]int
	xs := xsBuf[:0]
	n := len(pts)
	for y := minY; y <= maxY; y++ {
		xs = xs[:0]
		for i := 0; i < n; i++ {
			a, b := pts[i], pts[(i+1)%n]
			ay, by := int(a.Y), int(b.Y)
			if ay == by {
				continue
			}
			if (y >= ay && y < by) || (y >= by && y < ay) {
				t := float64(y-ay) / float64(by-ay)
				xs = append(xs, int(a.X)+int(t*float64(int(b.X)-int(a.X))))
			}
		}
		// Insertion-sort the few crossings.
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		for i := 0; i+1 < len(xs); i += 2 {
			im.fillRect(xs[i], y, xs[i+1]-xs[i]+1, 1, pixel)
		}
	}
}

// copyFrom copies a rectangle from src. Both rectangles are clipped
// once up front (shifting the pair in lockstep so the seed's
// per-pixel "skip out-of-bounds on either side" semantics hold), then
// rows move segment-wise with copy(). A self-copy whose clipped source
// and destination do not actually overlap takes the same direct path;
// a genuinely overlapping self-copy stages each row through a scratch
// buffer and walks rows in the safe vertical direction — no full-buffer
// clone in either case.
func (im *image) copyFrom(src *image, sx, sy, dx, dy, w, h int) {
	// Clip once: pull both origins inside their images in lockstep,
	// then bound the extent by both.
	if sx < 0 {
		dx -= sx
		w += sx
		sx = 0
	}
	if sy < 0 {
		dy -= sy
		h += sy
		sy = 0
	}
	if dx < 0 {
		sx -= dx
		w += dx
		dx = 0
	}
	if dy < 0 {
		sy -= dy
		h += dy
		dy = 0
	}
	w = min(w, src.w-sx, im.w-dx)
	h = min(h, src.h-sy, im.h-dy)
	if w <= 0 || h <= 0 {
		return
	}
	if src == im && dx < sx+w && sx < dx+w && dy < sy+h && sy < dy+h {
		im.copyOverlapping(sx, sy, dx, dy, w, h)
		return
	}
	for yy := 0; yy < h; yy++ {
		im.copyRow(src, sx, sy+yy, dx, dy+yy, w)
	}
}

// copyRow copies w pixels from src row (sx, sy) to row (dx, dy), in
// segments bounded by both sides' tile widths. Coordinates are already
// clipped.
func (im *image) copyRow(src *image, sx, sy, dx, dy, w int) {
	srcBase := (sy >> tileShift) * src.tw
	srcOff := (sy & tileMask) << tileShift
	dstOff := (dy & tileMask) << tileShift
	ty := dy >> tileShift
	for x := 0; x < w; {
		n := min(w-x, tileSize-((sx+x)&tileMask), tileSize-((dx+x)&tileMask))
		st := &src.tiles[srcBase+((sx+x)>>tileShift)]
		dt := im.writableTile((dx+x)>>tileShift, ty)
		do := dstOff | ((dx + x) & tileMask)
		if st.px == nil {
			fillSpan(dt.px[do:do+n], st.solid)
		} else {
			so := srcOff | ((sx + x) & tileMask)
			copy(dt.px[do:do+n], st.px[so:so+n])
		}
		x += n
	}
}

// copyOverlapping handles a self-copy whose clipped rectangles overlap.
// When the copy shifts vertically (dy != sy), walking rows in the safe
// direction guarantees every source row is read before it is
// overwritten — row r is read at step r-sy and written at step r-dy —
// so rows copy directly, tile segment by tile segment. Only a purely
// horizontal shift (dy == sy, source and destination share rows) needs
// to stage each row through a scratch buffer. Coordinates are already
// clipped.
func (im *image) copyOverlapping(sx, sy, dx, dy, w, h int) {
	if dy == sy {
		scratch := make([]uint32, w)
		for yy := 0; yy < h; yy++ {
			im.readRow(sx, sy+yy, scratch)
			im.writeRow(dx, dy+yy, scratch)
		}
		return
	}
	yy0, yy1, step := 0, h, 1
	if dy > sy {
		yy0, yy1, step = h-1, -1, -1
	}
	for yy := yy0; yy != yy1; yy += step {
		im.copyRow(im, sx, sy+yy, dx, dy+yy, w)
	}
}

// readRow copies len(dst) pixels of row sy starting at sx into dst.
// Coordinates are already clipped.
func (im *image) readRow(sx, sy int, dst []uint32) {
	base := (sy >> tileShift) * im.tw
	off := (sy & tileMask) << tileShift
	for x := 0; x < len(dst); {
		n := min(len(dst)-x, tileSize-((sx+x)&tileMask))
		t := &im.tiles[base+((sx+x)>>tileShift)]
		if t.px == nil {
			fillSpan(dst[x:x+n], t.solid)
		} else {
			o := off | ((sx + x) & tileMask)
			copy(dst[x:x+n], t.px[o:o+n])
		}
		x += n
	}
}

// writeRow copies src into row dy starting at dx. Coordinates are
// already clipped.
func (im *image) writeRow(dx, dy int, src []uint32) {
	ty := dy >> tileShift
	off := (dy & tileMask) << tileShift
	for x := 0; x < len(src); {
		n := min(len(src)-x, tileSize-((dx+x)&tileMask))
		t := im.writableTile((dx+x)>>tileShift, ty)
		o := off | ((dx + x) & tileMask)
		copy(t.px[o:o+n], src[x:x+n])
		x += n
	}
}

// packRGB packs the image's pixels into dst as row-major RGB triples.
// dst must be exactly w*h*3 bytes; the walk is segment-wise over tile
// rows, so the inner loop reads contiguous memory.
func (im *image) packRGB(dst []byte) {
	di := 0
	for y := 0; y < im.h; y++ {
		base := (y >> tileShift) * im.tw
		off := (y & tileMask) << tileShift
		for x := 0; x < im.w; {
			n := min(im.w-x, tileSize-(x&tileMask))
			t := &im.tiles[base+(x>>tileShift)]
			if t.px == nil {
				for end := di + 3*n; di < end; di += 3 {
					dst[di] = byte(t.solid >> 16)
					dst[di+1] = byte(t.solid >> 8)
					dst[di+2] = byte(t.solid)
				}
			} else {
				o := off | (x & tileMask)
				for _, px := range t.px[o : o+n] {
					dst[di] = byte(px >> 16)
					dst[di+1] = byte(px >> 8)
					dst[di+2] = byte(px)
					di += 3
				}
			}
			x += n
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
