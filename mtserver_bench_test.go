// Multi-client dispatch benchmarks: N concurrent clients driving a
// pipelined mixed-subsystem request stream against one server. The
// display's one lock is held only across each request's handler; the
// clients' simulated wire latencies, decoding and frame writing run
// outside it and overlap, so aggregate throughput scales with N. The
// gated emitter writes BENCH_mtserver.json, the artifact the
// EXPERIMENTS.md concurrency table points at.
package repro_test

import (
	"fmt"
	"runtime"
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
			s.SetLatencyModel(xserver.LatencyPerSegment)
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

// TestEmitMTServerBench measures aggregate throughput at 1/2/4/8
// concurrent clients, snapshots the lock-wait histogram, measures the
// allocation cost of the hot reply path, and writes
// BENCH_mtserver.json. It doubles as the acceptance check (make check
// runs it with OBS_BENCH=1): aggregate throughput at 8 clients must be
// ≥ 3× the single-client baseline — impossible if the per-segment
// latency were paid while holding the display lock.
func TestEmitMTServerBench(t *testing.T) {
	requireObsBench(t, "BENCH_mtserver.json")

	const rounds = 40
	const reps = 3

	s := xserver.New(800, 600)
	defer s.Close()
	s.SetLatency(time.Millisecond)
	s.SetLatencyModel(xserver.LatencyPerSegment)

	throughput := make(map[int]float64) // clients -> aggregate requests/sec
	for _, n := range []int{1, 2, 4, 8} {
		displays := openClients(t, s, n)
		// Warm the atom/color caches so every measured pass exercises
		// table hits, not first-touch interning.
		if _, _, err := runClients(displays, 2); err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for rep := 0; rep < reps; rep++ {
			total, wall, err := runClients(displays, rounds)
			if err != nil {
				t.Fatal(err)
			}
			if rps := float64(total) / wall.Seconds(); rps > best {
				best = rps
			}
		}
		throughput[n] = best
		for _, d := range displays {
			d.Close()
		}
	}

	speedup := throughput[8] / throughput[1]
	if speedup < 3 {
		t.Fatalf("aggregate throughput at 8 clients = %.0f req/s vs %.0f at 1 (%.2fx): want ≥ 3x — dispatch is serializing",
			throughput[8], throughput[1], speedup)
	}

	// Lock-wait histograms, accumulated over the whole run.
	type lockwait struct {
		Count uint64 `json:"acquisitions"`
		P50Ns int64  `json:"p50_wait_ns"`
		P99Ns int64  `json:"p99_wait_ns"`
		MaxNs int64  `json:"max_wait_ns"`
	}
	waits := make(map[string]lockwait)
	for _, name := range s.Metrics().HistogramNames() {
		if len(name) < 9 || name[:9] != "lockwait." {
			continue
		}
		snap := s.Metrics().Histogram(name).Snapshot()
		waits[name[9:]] = lockwait{
			Count: snap.Count,
			P50Ns: snap.Quantile(0.5),
			P99Ns: snap.Quantile(0.99),
			MaxNs: snap.Max,
		}
	}

	// Allocation cost of the hot reply path: pipelined ping round trips
	// at zero latency, no round-trip timer (it would allocate), counted
	// with ReadMemStats on the client side. The server side is observed
	// indirectly: before the pooled Writer/frame/read paths this number
	// included a make per frame on both ends.
	allocsPerRTT := func() float64 {
		as := xserver.New(200, 200)
		defer as.Close()
		d, err := xclient.Open(as.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		d.SetRoundTripTimeout(0)
		const flight, iters = 8, 200
		cookies := make([]*xclient.Cookie, flight)
		run := func() {
			for j := range cookies {
				cookies[j] = d.SendWithReply(&xproto.PingReq{})
			}
			for _, ck := range cookies {
				if err := ck.Wait(nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm pools and scratch buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(flight*iters)
	}()

	out := struct {
		LatencyNs    int64               `json:"segment_latency_ns"`
		Rounds       int                 `json:"rounds_per_client"`
		ReqPerSec    map[string]float64  `json:"aggregate_req_per_sec"`
		Speedup8v1   float64             `json:"speedup_8_clients_vs_1"`
		Lockwait     map[string]lockwait `json:"lockwait"`
		AllocsPerRTT float64             `json:"allocs_per_pipelined_roundtrip"`
	}{
		LatencyNs:    int64(time.Millisecond),
		Rounds:       rounds,
		ReqPerSec:    map[string]float64{},
		Speedup8v1:   speedup,
		Lockwait:     waits,
		AllocsPerRTT: allocsPerRTT,
	}
	for n, v := range throughput {
		out.ReqPerSec[fmt.Sprintf("clients_%d", n)] = v
	}
	writeBenchJSON(t, "BENCH_mtserver.json", out)
	t.Logf("wrote BENCH_mtserver.json: %.0f req/s at 1 client, %.0f at 8 (%.2fx), %.1f allocs/pipelined rtt",
		throughput[1], throughput[8], speedup, allocsPerRTT)
}
