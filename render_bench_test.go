// Render-pipeline benchmarks: a PolyFillRectangle/PolyText8 storm
// against the tiled damage-tracked renderer, compared to the seed's
// flat per-pixel renderer preserved in internal/flatimg, plus the
// screenshot-concurrency column: how much painter throughput survives
// while other connections continuously export composited screenshots.
// The gated emitter writes BENCH_render.json, the artifact the
// EXPERIMENTS.md render table points at.
package repro_test

import (
	"strings"
	"sync"
	"testing"
	"time"

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

// TestEmitRenderBench times the storm against both renderers, measures
// how much painter throughput survives concurrent screenshot export,
// and writes BENCH_render.json. It doubles as the acceptance check
// (make check runs it with OBS_BENCH=1): the tiled pipeline must be
// ≥ 3x the seed flat renderer on the storm — even though the tiled
// side pays for the full client/server protocol round and the flat
// baseline is called directly — and painters must keep ≥ half their
// throughput while screenshot readers hammer the composite path, which
// the old screenshot, which held the lock for the whole render, made
// impossible.
func TestEmitRenderBench(t *testing.T) {
	requireObsBench(t, "BENCH_render.json")

	const rounds = 10
	const reps = 3
	rects := stormRects()
	px := stormPixels()

	// Seed flat renderer, direct calls.
	flat := flatimg.New(stormW, stormH)
	flatStormRound(flat, rects) // warm
	flatBest := minDuration(reps, func() time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			flatStormRound(flat, rects)
		}
		return time.Since(start)
	})

	// Tiled renderer, full protocol round per storm.
	s := xserver.New(stormW, stormH)
	defer s.Close()
	d, win, gc := stormClient(t, s, 0)
	defer d.Close()
	if err := tiledStormRound(d, win, gc, rects); err != nil { // warm
		t.Fatal(err)
	}
	tiledBest := minDuration(reps, func() time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := tiledStormRound(d, win, gc, rects); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	})

	speedup := float64(flatBest) / float64(tiledBest)
	if speedup < 3 {
		t.Fatalf("tiled storm %.2fms vs flat %.2fms per %d rounds (%.2fx): want ≥ 3x",
			float64(tiledBest)/1e6, float64(flatBest)/1e6, rounds, speedup)
	}

	// Screenshot-concurrency column: two painters alone, then the same
	// painters with two connections exporting root screenshots at a
	// live-capture pace (~15 fps each). The plan/replay split means a
	// reader holds the display lock only for the snapshot walk, so painters keep
	// nearly all their throughput; the seed held the lock across the
	// whole compose-and-pack, stalling painters for milliseconds per
	// frame. The readers are paced, not free-running, so the column
	// measures lock stalls rather than raw CPU sharing on small hosts.
	painterRounds := func(withReaders bool) float64 {
		const painters = 2
		const proundsEach = 75
		ds := make([]*xclient.Display, painters)
		wins := make([]xproto.ID, painters)
		gcs := make([]xproto.ID, painters)
		for i := range ds {
			ds[i], wins[i], gcs[i] = stormClient(t, s, i*64)
		}
		defer func() {
			for _, pd := range ds {
				pd.Close()
			}
		}()

		stop := make(chan struct{})
		var readers sync.WaitGroup
		if withReaders {
			for r := 0; r < 2; r++ {
				rd, err := xclient.Open(s.ConnectPipe())
				if err != nil {
					t.Fatal(err)
				}
				readers.Add(1)
				go func(rd *xclient.Display) {
					defer readers.Done()
					defer rd.Close()
					tick := time.NewTicker(66 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
						}
						if _, err := rd.Screenshot(xproto.None); err != nil {
							t.Error(err)
							return
						}
					}
				}(rd)
			}
		}

		var wg sync.WaitGroup
		start := time.Now()
		for i := range ds {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := 0; n < proundsEach; n++ {
					if err := tiledStormRound(ds[i], wins[i], gcs[i], rects); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		close(stop)
		readers.Wait()
		return float64(painters*proundsEach) / wall.Seconds()
	}

	alone := painterRounds(false)
	contended := painterRounds(true)
	ratio := contended / alone
	if ratio < 0.5 {
		t.Fatalf("painter throughput under concurrent screenshots: %.1f vs %.1f rounds/s alone (ratio %.2f): want ≥ 0.5 — screenshots are stalling painters",
			contended, alone, ratio)
	}

	counters := map[string]uint64{}
	for _, name := range []string{"render.tiles.damaged", "render.tiles.cow", "render.tiles.snapshot", "render.fill.parallel"} {
		counters[name] = s.Metrics().Counter(name).Value()
	}

	out := struct {
		StormRects      int               `json:"storm_rects"`
		StormPx         int               `json:"storm_clipped_px"`
		FlatNsPerRound  int64             `json:"flat_ns_per_round"`
		TiledNsPerRound int64             `json:"tiled_ns_per_round"`
		FlatMPxPerSec   float64           `json:"flat_mpx_per_sec"`
		TiledMPxPerSec  float64           `json:"tiled_mpx_per_sec"`
		Speedup         float64           `json:"storm_speedup_tiled_vs_flat"`
		PainterAlone    float64           `json:"painter_rounds_per_sec_alone"`
		PainterShots    float64           `json:"painter_rounds_per_sec_with_screenshots"`
		ConcurrencyKeep float64           `json:"painter_throughput_kept_under_screenshots"`
		Counters        map[string]uint64 `json:"render_counters"`
	}{
		StormRects:      len(rects),
		StormPx:         px,
		FlatNsPerRound:  flatBest.Nanoseconds() / rounds,
		TiledNsPerRound: tiledBest.Nanoseconds() / rounds,
		FlatMPxPerSec:   float64(px) * rounds / 1e6 / flatBest.Seconds(),
		TiledMPxPerSec:  float64(px) * rounds / 1e6 / tiledBest.Seconds(),
		Speedup:         speedup,
		PainterAlone:    alone,
		PainterShots:    contended,
		ConcurrencyKeep: ratio,
		Counters:        counters,
	}
	writeBenchJSON(t, "BENCH_render.json", out)
	t.Logf("wrote BENCH_render.json: storm %.2fx vs flat renderer (%.0f vs %.0f MPx/s), %.0f%% painter throughput kept under screenshots",
		speedup, out.TiledMPxPerSec, out.FlatMPxPerSec, ratio*100)
}
