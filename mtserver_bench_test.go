// Multi-client dispatch benchmarks: N concurrent clients driving a
// pipelined mixed-subsystem request stream against one server. The
// display's one lock is held only across each request's handler; the
// clients' simulated wire latencies, decoding and frame writing run
// outside it and overlap, so aggregate throughput scales with N. The
// mtserver.speedup_8_clients row in gates_test.go drives the same
// rounds.
package repro_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// stressAtoms is the overlapping atom set every benchmark client
// interns from — after the first pass it is all table hits.
var stressAtoms = []string{
	"WM_NAME", "BENCH_A", "BENCH_B", "BENCH_C", "BENCH_D", "BENCH_E", "BENCH_F", "BENCH_G",
}

var benchPalette = []string{"red", "mediumseagreen", "bisque", "steelblue"}

// mixedRound issues one pipelined round of requests spanning the atom,
// color, GC, pixmap and dispatch-only subsystems — 4 reply-bearing and
// 6 one-way requests flushed as a single wire segment — and waits for
// the replies. Returns the number of requests issued.
func mixedRound(d *xclient.Display, i, r int) (int, error) {
	a1 := d.InternAtomAsync(stressAtoms[(i+r)%len(stressAtoms)])
	a2 := d.InternAtomAsync(stressAtoms[(i+r+3)%len(stressAtoms)])
	cc := d.AllocNamedColorAsync(benchPalette[(i+r)%len(benchPalette)])
	gc := d.CreateGC(xclient.GCValues{Mask: xproto.GCForeground, Foreground: uint32(i)})
	d.ChangeGC(gc, xclient.GCValues{Mask: xproto.GCLineWidth, LineWidth: 2})
	pix := d.CreatePixmap(16, 16)
	d.FillRectangle(pix, gc, 0, 0, 16, 16)
	d.FreePixmap(pix)
	d.FreeGC(gc)
	ping := d.SendWithReply(&xproto.PingReq{})
	if _, err := a1.Wait(); err != nil {
		return 0, err
	}
	if _, err := a2.Wait(); err != nil {
		return 0, err
	}
	if _, _, err := cc.Wait(); err != nil {
		return 0, err
	}
	if err := ping.Wait(nil); err != nil {
		return 0, err
	}
	return 10, nil
}

// runClients drives each display through rounds mixed rounds
// concurrently and returns total requests issued and the wall time.
func runClients(displays []*xclient.Display, rounds int) (int, time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(displays))
	reqs := make([]int, len(displays))
	start := time.Now()
	for i, d := range displays {
		wg.Add(1)
		go func(i int, d *xclient.Display) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n, err := mixedRound(d, i, r)
				if err != nil {
					errs[i] = err
					return
				}
				reqs[i] += n
			}
		}(i, d)
	}
	wg.Wait()
	wall := time.Since(start)
	total := 0
	for i := range displays {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		total += reqs[i]
	}
	return total, wall, nil
}

// openClients dials n in-process clients against s.
func openClients(tb testing.TB, s *xserver.Server, n int) []*xclient.Display {
	displays := make([]*xclient.Display, n)
	for i := range displays {
		d, err := xclient.Open(s.ConnectPipe())
		if err != nil {
			tb.Fatal(err)
		}
		displays[i] = d
	}
	return displays
}

// BenchmarkMultiClientDispatch measures aggregate multi-client request
// throughput at 1 ms of simulated latency per wire segment. The
// interesting number is how little ns/req grows from clients=1 to
// clients=8: the per-segment sleeps run outside the display lock and
// overlap.
func BenchmarkMultiClientDispatch(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			s := xserver.New(800, 600)
			defer s.Close()
			s.SetLatency(time.Millisecond)
			displays := openClients(b, s, n)
			defer func() {
				for _, d := range displays {
					d.Close()
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			totalReqs := 0
			for i := 0; i < b.N; i++ {
				reqs, _, err := runClients(displays, 1)
				if err != nil {
					b.Fatal(err)
				}
				totalReqs += reqs
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalReqs), "ns/req")
		})
	}
}
