// SLO rollup emitter: runs a mixed workload with request-span tracing
// enabled, folds the client and server registries plus the sampled
// spans into the machine-readable report (internal/obs/slo), measures
// the throughput cost of 1-in-64 span sampling, and writes
// BENCH_slo.json — the artifact the standing regression harness
// (ROADMAP item 5) diffs between runs.
package repro_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/slo"
	"repro/internal/obs/trace"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// pingRounds drives iters batches of flight pipelined pings.
func pingRounds(t *testing.T, d *xclient.Display, flight, iters int) {
	t.Helper()
	cookies := make([]*xclient.Cookie, flight)
	for i := 0; i < iters; i++ {
		for j := range cookies {
			cookies[j] = d.SendWithReply(&xproto.PingReq{})
		}
		for _, ck := range cookies {
			if err := ck.Wait(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEmitSLOBench is the SLO emitter and the tracing-overhead
// acceptance check (make check runs it with OBS_BENCH=1): the report
// must carry dispatch and round-trip quantiles, lock waits,
// span-derived wire time and a clean error budget, and the
// pipelined ping throughput with 1-in-64 sampling must stay within 10%
// of the untraced run.
func TestEmitSLOBench(t *testing.T) {
	requireObsBench(t, "BENCH_slo.json")

	// --- Workload under tracing: widgets plus pipelined pings. -------
	// A dense sampling interval (1 in 8) gives the rollup plenty of
	// span pairs without needing a huge request count.
	app, err := core.NewApp(core.Options{Name: "slobench", SpanInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	app.MustEval(`frame .f`)
	app.MustEval(`pack append . .f {top}`)
	for _, s := range []string{"a", "b", "c"} {
		app.MustEval(`button .f.` + s + ` -text ` + s + ` -foreground red`)
		app.MustEval(`pack append .f .f.` + s + ` {top}`)
	}
	app.Update()
	pingRounds(t, app.Disp, 8, 100)

	report := slo.Build(slo.Sources{
		Server: app.Server.Metrics(),
		Client: app.Metrics(),
		Spans:  app.Spans.Spans(),
	})

	if report.Dispatch == nil || report.Dispatch.Count == 0 {
		t.Fatal("report has no dispatch quantiles")
	}
	if report.RoundTrip == nil || report.RoundTrip.Count == 0 {
		t.Fatal("report has no round-trip quantiles")
	}
	if len(report.Lockwait) == 0 {
		t.Fatal("report has no lockwait quantiles")
	}
	if report.ErrorBudget.Requests == 0 {
		t.Fatal("error budget saw no requests")
	}
	if report.ErrorBudget.Errors != 0 || report.ErrorBudget.RemainingFraction != 1 {
		t.Fatalf("clean run spent error budget: %+v", report.ErrorBudget)
	}
	if report.Spans == nil || report.Spans.SampledRoundTrips == 0 {
		t.Fatal("no client.rtt/server.dispatch span pairs in the rollup")
	}
	if report.RoundTrip.P99Ns < report.RoundTrip.P50Ns {
		t.Fatalf("quantiles out of order: p50=%d p99=%d", report.RoundTrip.P50Ns, report.RoundTrip.P99Ns)
	}

	// --- Tracing overhead: pipelined pings, spans off vs 1-in-64. ----
	// The two configurations are timed in interleaved pairs, each side
	// first in every other pair, and the overhead is the median of the
	// per-pair ratios. A noise burst (GC from an earlier emitter in this
	// binary, a scheduler stall, another process) lands on a pair or two
	// and moves the median little; a leak raises every pair.
	const flight, iters, pairs, maxOverhead = 64, 60, 32, 0.10
	newApp := func(traced bool) *core.App {
		app, err := core.NewApp(core.Options{Name: "slobench"})
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			tr := trace.New(8192, trace.DefaultInterval)
			app.Server.SetTracer(tr)
			app.Disp.SetTracer(tr)
		}
		pingRounds(t, app.Disp, flight, 2) // warm pools and buffers
		return app
	}
	offApp := newApp(false)
	defer offApp.Close()
	onApp := newApp(true)
	defer onApp.Close()
	timeOnce := func(a *core.App) time.Duration {
		start := time.Now()
		pingRounds(t, a.Disp, flight, iters)
		return time.Since(start)
	}
	apps := [2]*core.App{offApp, onApp}
	ratios := make([]float64, pairs)
	var off, on time.Duration // summed, for the artifact's mean times
	for r := range ratios {
		var d [2]time.Duration
		for k := range 2 {
			side := (r + k) % 2 // 0 off, 1 on
			d[side] = timeOnce(apps[side])
		}
		off, on = off+d[0], on+d[1]
		ratios[r] = float64(d[1]) / float64(d[0])
	}
	slices.Sort(ratios)
	ratio := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	if ratio > 1+maxOverhead {
		t.Fatalf("1-in-64 span sampling costs %.1f%% throughput (median of %d pairs; per-pair ratios %.3f): want < %.0f%%",
			(ratio-1)*100, pairs, ratios, maxOverhead*100)
	}

	out := struct {
		Report          slo.Report `json:"slo_report"`
		SpanInterval    int        `json:"workload_span_interval"`
		OverheadFlight  int        `json:"overhead_round_trips_in_flight"`
		OverheadOffNs   int64      `json:"overhead_untraced_ns"`
		OverheadOnNs    int64      `json:"overhead_traced_1in64_ns"`
		OverheadRatio   float64    `json:"overhead_ratio"`
		RetainedSpans   int        `json:"retained_spans"`
		SampledRequests uint64     `json:"sampled_requests"`
	}{
		Report:          report,
		SpanInterval:    8,
		OverheadFlight:  flight,
		OverheadOffNs:   off.Nanoseconds() / pairs,
		OverheadOnNs:    on.Nanoseconds() / pairs,
		OverheadRatio:   ratio,
		RetainedSpans:   app.Spans.Len(),
		SampledRequests: app.Metrics().Counters()["trace.sampled"],
	}
	writeBenchJSON(t, "BENCH_slo.json", out)
	t.Logf("wrote BENCH_slo.json: dispatch p99 %dns, rtt p99 %dns, %d span pairs, overhead %.2f%%",
		report.Dispatch.P99Ns, report.RoundTrip.P99Ns, report.Spans.SampledRoundTrips, (ratio-1)*100)
}
