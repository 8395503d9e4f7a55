// The render storm: a PolyFillRectangle/PolyText8/CopyArea round
// against the tiled damage-tracked renderer, and the same round on the
// seed's flat per-pixel renderer preserved in internal/flatimg. The
// render rows of gates_test.go compare the two and time painters
// against screenshot readers.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/flatimg"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

const stormW, stormH = 1024, 768

// stormRects is a deterministic 64-rect storm modeled on a Tk repaint:
// eight full-width bands (frame backgrounds and reliefs) plus a grid
// of widget-scale fills, offset so several rects clip against every
// edge of the drawable.
func stormRects() []xproto.Rect {
	rects := make([]xproto.Rect, 0, 64)
	for i := 0; i < 8; i++ {
		rects = append(rects, xproto.Rect{X: -16, Y: int16(i*96 - 8), W: stormW + 32, H: 88})
	}
	for i := 0; i < 56; i++ {
		x := (i%8)*144 - 40
		y := (i/8)*104 - 24
		rects = append(rects, xproto.Rect{X: int16(x), Y: int16(y), W: 256, H: 128})
	}
	return rects
}

// stormScroll is the per-round scroll step: the region and upward
// shift of the overlapping self-CopyArea, a text-widget scroll.
const (
	scrollH     = 640
	scrollShift = 48
)

// stormPixels is the pixel area actually painted by one pass over the
// storm — clipped fill area plus the scrolled region — the denominator
// for pixels/second.
func stormPixels() int {
	total := stormW * scrollH // scroll step
	for _, r := range stormRects() {
		x0, y0 := max(int(r.X), 0), max(int(r.Y), 0)
		x1, y1 := min(int(r.X)+int(r.W), stormW), min(int(r.Y)+int(r.H), stormH)
		if x1 > x0 && y1 > y0 {
			total += (x1 - x0) * (y1 - y0)
		}
	}
	return total
}

var stormText = strings.Repeat("wish% pack .b -side top ", 2)

// flatStormRound paints one storm round with the seed renderer: the
// pre-PR per-pixel fill, copy and glyph loops, called directly with no
// protocol in the way (which biases the comparison in its favor).
func flatStormRound(im *flatimg.Image, rects []xproto.Rect) {
	for _, r := range rects {
		im.FillRect(int(r.X), int(r.Y), int(r.W), int(r.H), 0x336699)
	}
	im.CopyFrom(im, 0, scrollShift, 0, 0, stormW, scrollH)
	for i := 0; i < 8; i++ {
		im.DrawString(8, 40+i*80, stormText, 0xffffff, 1)
	}
}

// tiledStormRound pushes the same storm through the server: one
// batched PolyFillRectangle, one scrolling self-CopyArea, eight
// PolyText8 requests, one sync.
func tiledStormRound(d *xclient.Display, win, gc xproto.ID, rects []xproto.Rect) error {
	d.FillRectangles(win, gc, rects)
	d.CopyArea(win, win, gc, 0, scrollShift, 0, 0, stormW, scrollH)
	for i := 0; i < 8; i++ {
		d.DrawString(win, gc, 8, 40+i*80, stormText)
	}
	return d.Sync()
}

// stormClient opens a display with a storm-sized mapped window and a GC.
func stormClient(tb testing.TB, s *xserver.Server, x int) (*xclient.Display, xproto.ID, xproto.ID) {
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		tb.Fatal(err)
	}
	win := d.CreateWindow(d.Root, x, 0, stormW, stormH, 1, xclient.WindowAttributes{Background: 0x202020})
	d.MapWindow(win)
	gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: 0x336699})
	if err := d.Sync(); err != nil {
		tb.Fatal(err)
	}
	return d, win, gc
}

// BenchmarkRenderStorm measures the full client-to-framebuffer cost of
// one storm round against the tiled renderer. Run with -benchmem: the
// interesting numbers are MPx/s and that allocs/op stays flat — the
// fill path allocates nothing per rect.
func BenchmarkRenderStorm(b *testing.B) {
	s := xserver.New(stormW, stormH)
	defer s.Close()
	d, win, gc := stormClient(b, s, 0)
	defer d.Close()
	rects := stormRects()
	px := stormPixels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tiledStormRound(d, win, gc, rects); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(px)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MPx/s")
}
