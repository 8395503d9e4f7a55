// The performance gates: one table of the figures this tree claims,
// each with its bound, stated here and nowhere else. TestGates runs
// every row when OBS_BENCH is set and writes every figure, bounded or
// only reported, to BENCH_gates.json in the working directory.
//
// Every timed ratio is measured one way, by pairRatio: the two sides
// run in interleaved pairs, each side first in every other pair, and
// the figure is the median of the per-pair ratios. A noise burst lands
// on a pair or two and moves the median little; a regression moves
// every pair.
package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flatimg"
	"repro/internal/obs/slo"
	"repro/internal/obs/trace"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// A gate is one row of the table: the figure its measure function
// returns must lie within [min, max], where a zero side is open.
// measure may report further figures, which carry no bound.
type gate struct {
	name     string
	min, max float64
	measure  func(t *testing.T, report func(name string, v float64)) float64
}

var gates = []gate{
	// 8 serial Ping round trips over 8 pipelined ones at 1 ms per wire
	// segment: the cookie model pays the latency once per flight.
	{name: "pipeline.speedup_8_in_flight", min: 4, measure: pipelineRatio(true)},
	// The same ratio with each of the 8 Pings flushed on its own, as an
	// Xlib client in XSynchronize mode sends them: every request is a
	// segment, so pipelining changes the framing, not the bill, and the
	// two stay close.
	{name: "pipeline.per_request_framing", min: 2.0 / 3, max: 1.5, measure: pipelineRatio(false)},
	// Time per request at 1 client over time per request at 8, 1 ms per
	// segment: impossible if the latency were paid under the display lock.
	{name: "mtserver.speedup_8_clients", min: 3, measure: measureMTServer},
	// Process CPU time of pipelined pings traced at 1 in 64 over the
	// same pings untraced.
	{name: "slo.sampling_overhead", max: 1.10, measure: measureSLO},
	// The seed's flat renderer, called directly, over the tiled renderer
	// behind the full protocol, on the fill/scroll/text storm.
	{name: "render.storm_speedup", min: 3, measure: measureStorm},
	// Throughput of 2 painters while 2 connections export screenshots,
	// over their throughput alone.
	{name: "render.painters_kept", min: 0.5, measure: measurePainters},
	// Live heap after the last of 3 load waves over the heap after the
	// first, 1000 farm sessions; the row also holds the chaos and quota
	// checks.
	{name: "farm.heap_growth", max: 1.15, measure: measureFarm},
	// v1 wire bytes over v2 wire bytes for the 3000-fill storm.
	{name: "wire.bytes_reduction", min: 5, measure: measureWireBytes},
	// v1 latency charges (server wire reads) over v2's for the storm at
	// 10 ms per segment.
	{name: "wire.latency_charges_10ms", min: 2, measure: measureWireCharges},
}

// figure is one entry of BENCH_gates.json; a bounded figure carries its
// row's bound.
type figure struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

func TestGates(t *testing.T) {
	if os.Getenv("OBS_BENCH") == "" {
		t.Skip("set OBS_BENCH=1 to run the gates and write BENCH_gates.json")
	}
	figures := map[string]figure{}
	ran := 0
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			ran++
			report := func(name string, v float64) {
				figures[name] = figure{Value: v}
				t.Logf("%s = %.4g", name, v)
			}
			v := g.measure(t, report)
			figures[g.name] = figure{Value: v, Min: g.min, Max: g.max}
			if (g.min == 0 || v >= g.min) && (g.max == 0 || v <= g.max) {
				t.Logf("%s = %.4g, want %s", g.name, v, g.bound())
			} else {
				t.Errorf("%s = %.4g, want %s", g.name, v, g.bound())
			}
		})
	}
	// A run of some rows leaves the artifact alone, so it always holds
	// one whole run of the table.
	if ran < len(gates) {
		t.Logf("%d of %d rows ran: BENCH_gates.json left as it was", ran, len(gates))
		return
	}
	buf, err := json.MarshalIndent(struct {
		GOMAXPROCS int               `json:"gomaxprocs"`
		Figures    map[string]figure `json:"figures"`
	}{runtime.GOMAXPROCS(0), figures}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_gates.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// bound renders the row's bound, as in "≥ 4" or "in [0.6667, 1.5]".
func (g gate) bound() string {
	switch {
	case g.max == 0:
		return fmt.Sprintf("≥ %.4g", g.min)
	case g.min == 0:
		return fmt.Sprintf("≤ %.4g", g.max)
	}
	return fmt.Sprintf("in [%.4g, %.4g]", g.min, g.max)
}

// pairRatio runs a and b in n interleaved pairs, each side first in
// every other pair, and returns the median of the per-pair ratios a/b.
func pairRatio(n int, a, b func() time.Duration) float64 {
	ratios := make([]float64, n)
	for i := range ratios {
		var da, db time.Duration
		if i%2 == 0 {
			da = a()
			db = b()
		} else {
			db = b()
			da = a()
		}
		ratios[i] = float64(da) / float64(db)
	}
	return median(ratios)
}

// median sorts xs and returns its median.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// pingFlight sends len(cookies) Ping requests before waiting for any
// reply, then waits for every reply. With flushEach it flushes each Ping
// as it sends it, as an Xlib client in XSynchronize mode does, so every
// Ping crosses the link in a wire segment of its own.
func pingFlight(d *xclient.Display, cookies []*xclient.Cookie, flushEach bool) error {
	for j := range cookies {
		cookies[j] = d.SendWithReply(&xproto.PingReq{})
		if flushEach {
			if err := d.Flush(); err != nil {
				return err
			}
		}
	}
	for _, ck := range cookies {
		if err := ck.Wait(nil); err != nil {
			return err
		}
	}
	return nil
}

// newGateApp opens an application the test closes when it ends.
func newGateApp(t *testing.T, opts core.Options) *core.App {
	t.Helper()
	app, err := core.NewApp(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

// pipelineRatio measures 8 serial Ping round trips over 8 pipelined
// ones at 1 ms of simulated latency per wire segment. Batched, the
// pipelined Pings cross in one flush; otherwise each is flushed as it
// is sent.
func pipelineRatio(batched bool) func(*testing.T, func(string, float64)) float64 {
	return func(t *testing.T, _ func(string, float64)) float64 {
		app := newGateApp(t, core.Options{Name: "pipebench"})
		app.Server.SetLatency(time.Millisecond)
		cookies := make([]*xclient.Cookie, 8)
		serial := func() time.Duration {
			start := time.Now()
			for range cookies {
				if err := app.Disp.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
		pipelined := func() time.Duration {
			start := time.Now()
			if err := pingFlight(app.Disp, cookies, !batched); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		return pairRatio(9, serial, pipelined)
	}
}

// measureMTServer drives the mixed-subsystem rounds from 1 client and
// from 8 concurrent clients of one server, and reports the allocations
// per pipelined round trip.
func measureMTServer(t *testing.T, report func(string, float64)) float64 {
	const rounds = 40
	s := xserver.New(800, 600)
	defer s.Close()
	s.SetLatency(time.Millisecond)
	displays := openClients(t, s, 9)
	defer func() {
		for _, d := range displays {
			d.Close()
		}
	}()
	// Warm the atom and color tables so every timed round hits them.
	if _, _, err := runClients(displays, 2); err != nil {
		t.Fatal(err)
	}
	perRequest := func(displays []*xclient.Display) func() time.Duration {
		return func() time.Duration {
			total, wall, err := runClients(displays, rounds)
			if err != nil {
				t.Fatal(err)
			}
			return wall / time.Duration(total)
		}
	}
	speedup := pairRatio(5, perRequest(displays[:1]), perRequest(displays[1:]))
	report("mtserver.allocs_per_pipelined_rtt", allocsPerPipelinedRTT(t))
	return speedup
}

// allocsPerPipelinedRTT counts the process's allocations per Ping round
// trip, 8 in flight at zero latency with the default round-trip
// deadline: the cost of the hot reply path on both ends.
func allocsPerPipelinedRTT(t *testing.T) float64 {
	s := xserver.New(200, 200)
	defer s.Close()
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const iters = 200
	cookies := make([]*xclient.Cookie, 8)
	if err := pingFlight(d, cookies, false); err != nil { // warm buffers
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range iters {
		if err := pingFlight(d, cookies, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(cookies)*iters)
}

// measureSLO checks that the SLO report of a traced widget workload
// fills every section, then compares the CPU cost of traced and
// untraced pipelined pings. CPU time charges a leak its full cost
// whether or not the client and server goroutines overlap it, which
// wall time does not. A leak that records a span on every request costs
// less than the bound, so the row also counts the traced server's spans.
func measureSLO(t *testing.T, _ func(string, float64)) float64 {
	// A dense sampling interval (1 in 8) gives the rollup plenty of span
	// pairs without a huge request count.
	app := newGateApp(t, core.Options{Name: "slobench", SpanInterval: 8})
	app.MustEval(`frame .f`)
	app.MustEval(`pack append . .f {top}`)
	for _, s := range []string{"a", "b", "c"} {
		app.MustEval(`button .f.` + s + ` -text ` + s + ` -foreground red`)
		app.MustEval(`pack append .f .f.` + s + ` {top}`)
	}
	app.Update()
	cookies := make([]*xclient.Cookie, 64)
	pings := func(d *xclient.Display, flight, flights int) {
		for range flights {
			if err := pingFlight(d, cookies[:flight], false); err != nil {
				t.Fatal(err)
			}
		}
	}
	pings(app.Disp, 8, 100)
	report := slo.Build(slo.Sources{
		Server: app.Server.Metrics(),
		Client: app.Metrics(),
		Spans:  app.Spans.Spans(),
	})
	switch {
	case report.Dispatch == nil || report.Dispatch.Count == 0:
		t.Fatal("report has no dispatch quantiles")
	case report.RoundTrip == nil || report.RoundTrip.Count == 0:
		t.Fatal("report has no round-trip quantiles")
	case len(report.Lockwait) == 0:
		t.Fatal("report has no lockwait quantiles")
	case report.ErrorBudget.Requests == 0:
		t.Fatal("error budget saw no requests")
	case report.ErrorBudget.Errors != 0 || report.ErrorBudget.RemainingFraction != 1:
		t.Fatalf("clean run spent error budget: %+v", report.ErrorBudget)
	case report.Spans == nil || report.Spans.SampledRoundTrips == 0:
		t.Fatal("no client.rtt/server.dispatch span pairs in the rollup")
	case report.RoundTrip.P99Ns < report.RoundTrip.P50Ns:
		t.Fatalf("quantiles out of order: p50=%d p99=%d", report.RoundTrip.P50Ns, report.RoundTrip.P99Ns)
	}

	// Each side is a whole number of sampling intervals, so the traced
	// server records exactly one span per interval.
	const flights, pairs = 240, 32
	newApp := func(traced bool) *core.App {
		a := newGateApp(t, core.Options{Name: "slobench"})
		if traced {
			tr := trace.New(8192, trace.DefaultInterval)
			a.Server.SetTracer(tr)
			a.Disp.SetTracer(tr)
		}
		pings(a.Disp, 64, 2) // warm buffers
		return a
	}
	off, on := newApp(false), newApp(true)
	cpu := func(a *core.App) func() time.Duration {
		return func() time.Duration {
			start := cpuTime()
			pings(a.Disp, 64, flights)
			return cpuTime() - start
		}
	}
	spans, requests := on.Server.Metrics().Counter("trace.spans"), on.Server.Metrics().Counter("requests")
	spans0, requests0 := spans.Value(), requests.Value()
	ratio := pairRatio(pairs, cpu(on), cpu(off))
	gotSpans, gotRequests := spans.Value()-spans0, requests.Value()-requests0
	if gotSpans != gotRequests/trace.DefaultInterval {
		t.Errorf("traced server recorded %d spans for %d requests, want %d (1 in %d)",
			gotSpans, gotRequests, gotRequests/trace.DefaultInterval, trace.DefaultInterval)
	}
	return ratio
}

// measureStorm times 10 storm rounds on the seed's flat renderer and on
// the tiled one, which pays for the whole client/server round as well.
func measureStorm(t *testing.T, _ func(string, float64)) float64 {
	const rounds = 10
	rects := stormRects()
	flat := flatimg.New(stormW, stormH)
	s := xserver.New(stormW, stormH)
	defer s.Close()
	d, win, gc := stormClient(t, s, 0)
	defer d.Close()
	flatRounds := func() time.Duration {
		start := time.Now()
		for range rounds {
			flatStormRound(flat, rects)
		}
		return time.Since(start)
	}
	tiledRounds := func() time.Duration {
		start := time.Now()
		for range rounds {
			if err := tiledStormRound(d, win, gc, rects); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	flatStormRound(flat, rects) // warm
	if err := tiledStormRound(d, win, gc, rects); err != nil {
		t.Fatal(err)
	}
	return pairRatio(5, flatRounds, tiledRounds)
}

// measurePainters times 2 painters through 75 storm rounds each, alone
// and while 2 other connections export root screenshots at a
// live-capture pace (about 15 per second each). A reader holds the
// display lock only to plan its screenshot, so painters keep nearly all
// their throughput. The readers are paced, not free-running, so the
// figure measures lock stalls rather than CPU sharing on small hosts.
func measurePainters(t *testing.T, _ func(string, float64)) float64 {
	const painters, rounds = 2, 75
	s := xserver.New(stormW, stormH)
	defer s.Close()
	rects := stormRects()
	ds := make([]*xclient.Display, painters)
	wins := make([]xproto.ID, painters)
	gcs := make([]xproto.ID, painters)
	for i := range ds {
		ds[i], wins[i], gcs[i] = stormClient(t, s, i*64)
	}
	readers := openClients(t, s, 2)
	defer func() {
		for _, d := range append(ds, readers...) {
			d.Close()
		}
	}()
	paint := func() time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for i := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range rounds {
					if err := tiledStormRound(ds[i], wins[i], gcs[i], rects); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	withReaders := func() time.Duration {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, rd := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
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
			}()
		}
		d := paint()
		close(stop)
		wg.Wait()
		return d
	}
	// Time alone over time with readers is throughput kept.
	return pairRatio(3, paint, withReaders)
}

// farmTenant is one simulated wish session: a display connection plus
// the resources a small widget app would hold.
type farmTenant struct {
	name string
	d    *xclient.Display
	sess *xserver.Session
	win  xproto.ID
	gc   xproto.ID
}

// run performs one load round: a fill into the session's window plus a
// round trip, the shape of a widget redisplay.
func (ft *farmTenant) run() error {
	ft.d.FillRectangle(ft.win, ft.gc, 2, 2, 60, 40)
	return ft.d.Sync()
}

// measureFarm hosts 1000 wish-style sessions on one farm under
// sustained load waves and checks the farm's load-bearing properties:
// the heap is a plateau, not a leak, across waves; evicting 10% of the
// sessions mid-run costs the survivors no failed request; and every
// evicted session's quota reconciles to zero. It reports the ramp time,
// the plateau heap, the rolled-up dispatch p99 (the series /slo
// reports) and the survivors' wave time.
func measureFarm(t *testing.T, report func(string, float64)) float64 {
	const sessions, evict, waves, rounds = 1000, 100, 3, 20
	farm := xserver.NewFarm(xserver.FarmOptions{
		// Small per-session screens: the farm's point is thousands of
		// cheap displays, not thousands of 1024×768 framebuffers.
		Width: 160, Height: 120,
		MaxSessions: sessions + 50,
		Quota: xserver.Quota{
			MaxWindows:     32,
			MaxPixmapBytes: 1 << 20,
			MaxGCs:         32,
		},
	})
	defer farm.Close()

	// Ramp: attach every session and furnish it like a small app.
	start := time.Now()
	tenants := make([]*farmTenant, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("sess-%04d", i)
			d, err := xclient.OpenSession(farm.ConnectPipe(), name)
			if err != nil {
				errs <- fmt.Errorf("%s: attach: %w", name, err)
				return
			}
			ft := &farmTenant{name: name, d: d}
			ft.win = d.CreateWindow(d.Root, 0, 0, 80, 60, 1, xclient.WindowAttributes{})
			d.MapWindow(ft.win)
			ft.gc = d.CreateGC(xclient.GCValues{Foreground: 0x336699})
			d.CreatePixmap(16, 16)
			if err := d.Sync(); err != nil {
				errs <- fmt.Errorf("%s: furnish: %w", name, err)
				return
			}
			sess, ok := farm.Lookup(name)
			if !ok {
				errs <- fmt.Errorf("%s: session missing after attach", name)
				return
			}
			ft.sess = sess
			tenants[i] = ft
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	report("farm.ramp_ms", float64(time.Since(start).Milliseconds()))
	if n := farm.SessionCount(); n != sessions {
		t.Fatalf("SessionCount = %d, want %d", n, sessions)
	}

	// heapNow GCs twice (finalizer-created garbage included) and reads
	// the live heap.
	heapNow := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Sustained waves: every session keeps redisplaying.
	runWave := func(group []*farmTenant) time.Duration {
		begin := time.Now()
		var wwg sync.WaitGroup
		werrs := make(chan error, len(group))
		for _, ft := range group {
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				for range rounds {
					if err := ft.run(); err != nil {
						werrs <- fmt.Errorf("%s: %w", ft.name, err)
						return
					}
				}
			}()
		}
		wwg.Wait()
		close(werrs)
		for err := range werrs {
			t.Fatal(err)
		}
		return time.Since(begin)
	}
	// The heap after the first wave is the plateau; growth across the
	// later waves at a steady session count would be a leak.
	runWave(tenants)
	plateau := heapNow()
	for range waves - 1 {
		runWave(tenants)
	}
	growth := float64(heapNow()) / float64(plateau)
	report("farm.heap_mb", float64(plateau)/(1<<20))

	// Chaos: evict 10% of the sessions while the rest keep working. The
	// victims' clients are mid-flight on purpose.
	victims, survivors := tenants[:evict], tenants[evict:]
	var vwg sync.WaitGroup
	for _, ft := range victims {
		vwg.Add(1)
		go func() {
			defer vwg.Done()
			for ft.run() == nil {
			}
		}()
	}
	var ewg sync.WaitGroup
	ewg.Add(1)
	go func() {
		defer ewg.Done()
		for _, ft := range victims {
			if !farm.Evict(ft.name) {
				t.Errorf("Evict(%s) found no session", ft.name)
			}
		}
	}()
	report("farm.survivor_wave_ms", float64(runWave(survivors).Milliseconds())) // must complete with zero errors
	ewg.Wait()
	vwg.Wait()

	// Every evicted session's quota reconciles to zero.
	deadline := time.Now().Add(10 * time.Second)
	for _, ft := range victims {
		for {
			w, pb, g := ft.sess.Server().QuotaUsage()
			if w == 0 && pb == 0 && g == 0 {
				break
			}
			if w < 0 || pb < 0 || g < 0 {
				t.Fatalf("%s: negative quota after eviction: %d/%d/%d", ft.name, w, pb, g)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: quota not reconciled after eviction: %d/%d/%d", ft.name, w, pb, g)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if n := farm.SessionCount(); n != sessions-evict {
		t.Fatalf("SessionCount after chaos = %d, want %d", n, sessions-evict)
	}

	// Full teardown: close every client and require global
	// reconciliation.
	for _, ft := range tenants {
		ft.d.Close()
	}
	deadline = time.Now().Add(10 * time.Second)
	for _, ft := range survivors {
		for {
			w, pb, g := ft.sess.Server().QuotaUsage()
			if w == 0 && pb == 0 && g == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: quota not reconciled on teardown: %d/%d/%d", ft.name, w, pb, g)
			}
			time.Sleep(time.Millisecond)
		}
	}

	disp := farm.Metrics().Histogram("dispatch").Snapshot()
	if disp.Count == 0 {
		t.Fatal("farm rollup dispatch histogram is empty")
	}
	report("farm.dispatch_p99_us", float64(disp.Quantile(0.99))/1e3)

	// Leave the shared test binary with a settled heap: tearing down
	// 1000 sessions frees tens of MB at once, and GC pacing off that
	// spike skews the timed rows that run after this one. Close is
	// idempotent, so the deferred call becomes a no-op.
	farm.Close()
	heapNow()
	return growth
}

// wireFills is the storm's size: fills cycling through varying
// geometries, repeated frames that flate's window matches.
const wireFills = 3000

// openWire builds a fresh server and display pair speaking the given
// wire mode, with the server charging rtt per wire read: the simulated
// network round trip.
func openWire(t *testing.T, mode xclient.WireMode, rtt time.Duration) (*xserver.Server, *xclient.Display) {
	srv := xserver.New(640, 480)
	srv.SetLatency(rtt)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: mode})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Close()
		srv.Close()
	})
	return srv, d
}

// wireStorm drives the rectangle storm, closed by one Sync so every
// byte has crossed the wire on return.
func wireStorm(t *testing.T, d *xclient.Display) {
	w := d.CreateWindow(d.Root, 0, 0, 640, 480, 0, xclient.WindowAttributes{Background: 0x101010})
	d.MapWindow(w)
	gc := d.CreateGC(xclient.GCValues{Foreground: 0x40C080})
	for i := range wireFills {
		d.FillRectangle(w, gc, i%600, (i*13)%440, 16, 12)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

// measureWireBytes sends the same storm over v1 and over v2 and
// reports each version's wire bytes.
func measureWireBytes(t *testing.T, report func(string, float64)) float64 {
	var wire [2]uint64
	for i, mode := range []xclient.WireMode{xclient.WireV1, xclient.WireV2} {
		_, d := openWire(t, mode, 0)
		wireStorm(t, d)
		m := d.Metrics()
		raw := m.Counter("wire.bytes.raw").Value()
		wire[i] = m.Counter("wire.bytes.wire").Value()
		if mode == xclient.WireV1 && raw != wire[i] {
			t.Fatalf("v1 raw (%d) != v1 wire (%d): v1 must be a passthrough", raw, wire[i])
		}
		report(fmt.Sprintf("wire.v%d_bytes", i+1), float64(wire[i]))
	}
	return float64(wire[0]) / float64(wire[1])
}

// measureWireCharges runs the storm over v1 and over v2 at 0, 1 and
// 10 ms per segment, on connections warmed by 16 syncs so the v2 flush
// controller has round-trip samples, and reports each storm's median
// wall time. At 10 ms a storm takes its latency charges × 10 ms plus the
// CPU both sides spend, and the CPU part flips a wall-time ratio near
// its bound, so the figure counts the charges: the server's wire reads
// per storm. It fails when the adaptive flush or the compression stops
// batching the storm, not when v2 spends more CPU.
func measureWireCharges(t *testing.T, report func(string, float64)) float64 {
	const storms = 3
	var charges [2]float64
	for _, ms := range []int{0, 1, 10} {
		for i, mode := range []xclient.WireMode{xclient.WireV1, xclient.WireV2} {
			srv, d := openWire(t, mode, time.Duration(ms)*time.Millisecond)
			for range 16 {
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			segments := srv.Metrics().Counter("segments")
			before := segments.Value()
			walls := make([]float64, storms)
			for r := range walls {
				start := time.Now()
				wireStorm(t, d)
				walls[r] = float64(time.Since(start)) / 1e6
			}
			report(fmt.Sprintf("wire.v%d_storm_ms_at_%dms", i+1, ms), median(walls))
			if ms == 10 {
				charges[i] = float64(segments.Value()-before) / storms
			}
		}
	}
	report("wire.v1_charges_10ms", charges[0])
	report("wire.v2_charges_10ms", charges[1])
	return charges[0] / charges[1]
}
