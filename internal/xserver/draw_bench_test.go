package xserver

import (
	"math/rand"
	"testing"
)

// BenchmarkDrawLines draws 200 segments in the slide deck's mix into one
// 480×360 image, with no protocol in between: each line item is a
// two-segment polyline whose first point lies in [0,440)×[0,330) and
// whose other two lie anywhere on the canvas, at widths 1–4 (the deck
// is built by newDeck in cmd/tkbench/workloads.go).
func BenchmarkDrawLines(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var segs [][5]int
	for len(segs) < 200 {
		x, y := rng.Intn(440), rng.Intn(330)
		x2, y2, x3, y3 := rng.Intn(480), rng.Intn(360), rng.Intn(480), rng.Intn(360)
		lw := 1 + rng.Intn(4)
		segs = append(segs, [5]int{x, y, x2, y2, lw}, [5]int{x2, y2, x3, y3, lw})
	}
	im := newFilledImage(480, 360, 0xffffff, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, sg := range segs {
			im.drawLine(sg[0], sg[1], sg[2], sg[3], sg[4], uint32(k)*0x010203)
		}
	}
}
