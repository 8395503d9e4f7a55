// Package repro_test is the benchmark harness that regenerates the
// paper's Table II ("Execution times for selected operations in Tk") plus
// the ablation measurements DESIGN.md calls out. Table I (code sizes) is
// regenerated by cmd/sizes. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's numbers (DECstation 3100, Ultrix 4.2, X11R4):
//
//	Simple Tcl command (set a 1)            68 µs
//	Send empty command                      15 ms
//	Create, display, delete 50 buttons     440 ms
//
// Absolute values here differ (2026 hardware, Go, simulated server); the
// shape — send costs orders of magnitude more than a local command
// because of IPC round trips, and widget creation is dominated by
// client/server traffic — is the reproduced result. The *Latency
// variants dial simulated IPC cost back in to show the dependence.
package repro_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
	"time"
)

// --- Table II, row 1: simple Tcl command ---------------------------------

func BenchmarkSimpleTclCommand(b *testing.B) {
	in := tcl.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Eval("set a 1"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II, row 2: send empty command ---------------------------------

// sendPair builds two applications sharing one display, with the target
// pumping its event loop in the background.
func sendPair(b *testing.B, latency time.Duration) (*core.App, *xserver.Server, func()) {
	srv := xserver.New(800, 600)
	sender, err := core.NewAppOnServer(srv, "sender", nil)
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewAppOnServer(srv, "target", nil)
	if err != nil {
		b.Fatal(err)
	}
	if latency > 0 {
		srv.SetLatency(latency)
	}
	stop := target.StartServing()
	cleanup := func() {
		stop()
		srv.SetLatency(0)
		target.Close()
		sender.Close()
		srv.Close()
	}
	return sender, srv, cleanup
}

// reportSegments reports the server's wire segments per op since
// before. At latency d a run costs about its 0 ms time plus
// segments/op × d.
func reportSegments(b *testing.B, srv *xserver.Server, before uint64) {
	segs := srv.Metrics().Counter("segments").Value() - before
	b.ReportMetric(float64(segs)/float64(b.N), "segments/op")
}

func BenchmarkSendEmptyCommand(b *testing.B) {
	sender, _, cleanup := sendPair(b, 0)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sender.Send("target", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendLatency shows how send scales with the simulated IPC cost
// per wire segment — the quantity the paper's 15 ms was made of.
func BenchmarkSendLatency(b *testing.B) {
	for _, lat := range []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond} {
		b.Run(fmt.Sprintf("latency=%v", lat), func(b *testing.B) {
			sender, srv, cleanup := sendPair(b, lat)
			defer cleanup()
			before := srv.Metrics().Counter("segments").Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sender.Send("target", ""); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportSegments(b, srv, before)
		})
	}
}

// --- Table II, row 3: create, display, delete 50 buttons ------------------

func BenchmarkCreateDisplayDelete50Buttons(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.MustEval(`frame .f`)
		for j := 0; j < 50; j++ {
			app.MustEval(fmt.Sprintf(`button .f.b%d -text "Button %d"`, j, j))
			app.MustEval(fmt.Sprintf(`pack append .f .f.b%d {top}`, j))
		}
		app.MustEval(`pack append . .f {top}`)
		app.Update() // display: layout, map, draw
		app.MustEval(`destroy .f`)
		app.Update()
	}
}

// BenchmarkCreateDisplayDelete50ButtonsLatency repeats row 3 with 100 µs
// of simulated IPC latency per wire segment, restoring the client/server
// process boundary the paper's half-client/half-server split reflects.
func BenchmarkCreateDisplayDelete50ButtonsLatency(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.Server.SetLatency(100 * time.Microsecond)
	defer app.Server.SetLatency(0)
	before := app.Server.Metrics().Counter("segments").Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.MustEval(`frame .f`)
		for j := 0; j < 50; j++ {
			app.MustEval(fmt.Sprintf(`button .f.b%d -text "Button %d"`, j, j))
			app.MustEval(fmt.Sprintf(`pack append .f .f.b%d {top}`, j))
		}
		app.MustEval(`pack append . .f {top}`)
		app.Update()
		app.MustEval(`destroy .f`)
		app.Update()
	}
	b.StopTimer()
	reportSegments(b, app.Server, before)
}

// --- §3.3 follow-on: round trips and pipelining ---------------------------

// BenchmarkRoundTripLatency measures one protocol round trip (Sync) at
// two simulated IPC latencies, reporting the histogram's own quantile
// estimates alongside the wall-clock numbers so the two can be compared.
func BenchmarkRoundTripLatency(b *testing.B) {
	for _, bc := range []struct {
		name string
		lat  time.Duration
	}{
		{"latency=0", 0},
		{"latency=1ms", time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			app, err := core.NewApp(core.Options{Name: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			defer app.Close()
			app.Server.SetLatency(bc.lat)
			defer app.Server.SetLatency(0)
			app.Metrics().Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := app.Disp.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if h, ok := app.Metrics().FindHistogram("roundtrip"); ok {
				s := h.Snapshot()
				b.ReportMetric(float64(s.Quantile(0.5)), "p50-ns")
				b.ReportMetric(float64(s.Quantile(0.99)), "p99-ns")
			}
		})
	}
}

// BenchmarkPipelinedRoundTrips measures k Ping round trips per
// iteration with k requests in flight at once, at 1 ms of simulated IPC
// latency charged per wire segment. With the cookie model the k=8 and
// k=64 variants pay the latency once per batch, not once per request.
// The +spans variant runs with 1-in-64 request-span sampling on both
// sides; the slo.sampling_overhead row in gates_test.go gates that
// cost.
func BenchmarkPipelinedRoundTrips(b *testing.B) {
	for _, bc := range []struct {
		name  string
		k     int
		spans bool
	}{
		{"inflight=1", 1, false},
		{"inflight=8", 8, false},
		{"inflight=64", 64, false},
		{"inflight=64+spans", 64, true},
	} {
		k := bc.k
		b.Run(bc.name, func(b *testing.B) {
			app, err := core.NewApp(core.Options{Name: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			defer app.Close()
			app.Server.SetLatency(time.Millisecond)
			if bc.spans {
				tr := trace.New(8192, trace.DefaultInterval)
				app.Server.SetTracer(tr)
				app.Disp.SetTracer(tr)
			}
			defer app.Server.SetLatency(0)
			cookies := make([]*xclient.Cookie, k)
			// The reply path allocates little end to end; allocs/op here
			// is the regression canary for it (the
			// mtserver.allocs_per_pipelined_rtt figure of gates_test.go).
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pingFlight(app.Disp, cookies, false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Per-round-trip cost, so the variants compare directly.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/rtt")
		})
	}
}

// --- §3.3 ablation: resource caches ---------------------------------------

func BenchmarkColorCacheHit(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	if _, err := app.Color("MediumSeaGreen"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Color("MediumSeaGreen"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColorCacheMiss(b *testing.B) {
	// Every lookup bypasses the cache (a fresh name each time): one
	// server round trip per iteration, the §3.3 "without caching" cost.
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := app.Disp.AllocNamedColor("MediumSeaGreen"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.2 ablation: event dispatch and bindings ----------------------------

func BenchmarkBindDispatch(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`frame .f -width 100 -height 100`)
	app.MustEval(`pack append . .f {top}`)
	app.MustEval(`bind .f x {set hits 1}`)
	app.Update()
	w, _ := app.NameToWindow(".f")
	rx, ry := w.RootCoords()
	app.Disp.WarpPointer(rx+10, ry+10)
	app.Update()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Disp.FakeKey('x', true)
		app.Disp.FakeKey('x', false)
		app.Update()
	}
}

// --- Tcl interpreter microbenchmarks ---------------------------------------

// benchEval evaluates script b.N times in a fresh interpreter after
// evaluating setup once.
func benchEval(b *testing.B, setup, script string) {
	in := tcl.New()
	if _, err := in.Eval(setup); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Eval(script); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExprSimple(b *testing.B) {
	in := tcl.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.EvalExpr("1+2*3"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExprVariables(b *testing.B) {
	in := tcl.New()
	in.SetVar("x", "17")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.EvalExpr("$x*2 > 30 && $x % 2 == 1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcCall(b *testing.B) {
	benchEval(b, "proc add {x y} {expr $x+$y}", "add 3 4")
}

func BenchmarkListOperations(b *testing.B) {
	benchEval(b, "set l {a b c d e f g h i j}", "lindex $l 5")
}

// BenchmarkListIndexWalk walks a 150-element list by index, as
// compute.tcl's checksum does: every iteration asks llength and lindex of
// the same list. Parsing the list for each command makes the walk
// quadratic in its length, which the 10-element list of
// BenchmarkListOperations cannot show.
func BenchmarkListIndexWalk(b *testing.B) {
	benchEval(b, "set l {}; for {set i 0} {$i < 150} {incr i} {lappend l $i}",
		"set i 0; while {$i < [llength $l]} {lindex $l $i; incr i}")
}

// The loop benchmarks run 100 iterations per operation: each iteration
// re-evaluates the loop's condition and body.

func BenchmarkForLoop(b *testing.B) {
	benchEval(b, "", "for {set i 0} {$i < 100} {incr i} {set x $i}")
}

func BenchmarkWhileLoop(b *testing.B) {
	benchEval(b, "", "set i 0; while {$i < 100} {incr i}")
}

func BenchmarkForeachLoop(b *testing.B) {
	benchEval(b, "set l {}; for {set i 0} {$i < 100} {incr i} {lappend l $i}",
		"set s 0; foreach v $l {set s [expr {$s + $v}]}")
}

// BenchmarkEvalOneShot evaluates a different script every iteration, so
// no compiled form is ever reused: it measures the cold path.
func BenchmarkEvalOneShot(b *testing.B) {
	in := tcl.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := strconv.Itoa(i)
		if _, err := in.Eval("set a " + n + "; incr a; set b [string length $a]"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.4 ablation: packer cost vs number of slaves -------------------------

func BenchmarkPackerRelayout(b *testing.B) {
	for _, n := range []int{5, 20, 50} {
		b.Run(fmt.Sprintf("slaves=%d", n), func(b *testing.B) {
			app, err := core.NewApp(core.Options{Name: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			defer app.Close()
			for j := 0; j < n; j++ {
				app.MustEval(fmt.Sprintf(`frame .s%d -width 40 -height 10`, j))
				app.MustEval(fmt.Sprintf(`pack append . .s%d {top}`, j))
			}
			app.Update()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Change one slave's request: full relayout at idle.
				w, _ := app.NameToWindow(".s0")
				w.GeometryRequest(40, 10+i%2)
				app.UpdateIdleTasks()
			}
		})
	}
}

// --- Table I ablation: Tcl-composed button vs Xt-style baseline -------------

func BenchmarkTclButtonCreateClickDestroy(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`set n 0`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.MustEval(`button .b -text Press -command {incr n}`)
		app.MustEval(`pack append . .b {top}`)
		app.Update()
		app.MustEval(`.b invoke`)
		app.MustEval(`destroy .b`)
		app.Update()
	}
}

func BenchmarkBaselineButtonCreateClickDestroy(b *testing.B) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	bt, err := baseline.NewToolkit(d)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := bt.CreateWidget(baseline.CommandClass, xproto.None,
			map[string]string{"label": "Press"})
		if err != nil {
			b.Fatal(err)
		}
		w.AddCallback("callback", func(*baseline.Widget, any) { n++ })
		w.SetGeometry(10, 10, 60, 20)
		w.Realize()
		bt.Sync()
		w.Armed = true
		w.CallCallbacks("callback", nil)
		bt.DestroyWidget(w)
		bt.Sync()
	}
}

// --- Canvas (the paper's planned drawing commands, §5) -----------------------

func BenchmarkCanvasCreateItems(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`canvas .c -width 400 -height 300`)
	app.MustEval(`pack append . .c {top}`)
	app.Update()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.MustEval(fmt.Sprintf(`.c create line %d 0 %d 300`, i%400, (i+37)%400))
		if i%200 == 199 {
			b.StopTimer()
			app.MustEval(`.c delete all`)
			app.Update()
			b.StartTimer()
		}
	}
}

func BenchmarkCanvasRedraw(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`canvas .c -width 400 -height 300`)
	app.MustEval(`pack append . .c {top}`)
	for i := 0; i < 100; i++ {
		app.MustEval(fmt.Sprintf(`.c create line %d 0 %d 300`, i*4, 400-i*4))
	}
	app.Update()
	w, _ := app.NameToWindow(".c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ScheduleRedraw()
		app.UpdateIdleTasks()
	}
}

func BenchmarkTextInsert(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`text .t -width 60 -height 20`)
	app.MustEval(`pack append . .t {top}`)
	app.Update()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.MustEval(`.t insert end "another line of program text\n"`)
		if i%2000 == 1999 {
			b.StopTimer()
			app.MustEval(`.t delete 1.0 end`)
			b.StartTimer()
		}
	}
}

// --- Intrinsics microbenchmarks ---------------------------------------------

func BenchmarkWindowNameLookup(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`frame .a; frame .a.b; frame .a.b.c`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.NameToWindow(".a.b.c"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptionDatabaseLookup(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`option add *Button.background red`)
	app.MustEval(`option add *Frame*foreground blue`)
	app.MustEval(`option add *a.b.background green`)
	app.MustEval(`frame .a`)
	w, _ := app.NameToWindow(".a")
	var tkApp *tk.App = app.App
	_ = tkApp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.GetOption(w, "background", "Background")
	}
}

// BenchmarkOptionDatabaseLookupAlternating looks up two windows in turn,
// so every lookup rebuilds the option stack that
// BenchmarkOptionDatabaseLookup reuses.
func BenchmarkOptionDatabaseLookupAlternating(b *testing.B) {
	app, err := core.NewApp(core.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`option add *Button.background red`)
	app.MustEval(`option add *Frame*foreground blue`)
	app.MustEval(`option add *a.b.background green`)
	app.MustEval(`frame .a`)
	app.MustEval(`button .a.b`)
	a, _ := app.NameToWindow(".a")
	ab, _ := app.NameToWindow(".a.b")
	wins := [2]*tk.Window{a, ab}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.GetOption(wins[i&1], "background", "Background")
	}
}
