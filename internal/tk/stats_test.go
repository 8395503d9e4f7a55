package tk

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/obs/xtrace"
	"repro/internal/xclient"
	"repro/internal/xserver"
)

// statsApp builds an app returning the private server too (so tests can
// set its simulated latency) and optionally a wire tracer.
func statsApp(t *testing.T, trace bool) (*App, *xserver.Server, *xtrace.Tracer) {
	t.Helper()
	srv := xserver.New(640, 480)
	t.Cleanup(srv.Close)
	var tr *xtrace.Tracer
	if trace {
		tr = xtrace.New(256)
	}
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	app, err := NewApp(d, Config{Name: "stats"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Destroy)
	return app, srv, tr
}

// counterFromTkstats extracts one counter's value from "tkstats
// counters" output ("name value" lines).
func counterFromTkstats(t *testing.T, app *App, name string) uint64 {
	t.Helper()
	out := app.MustEval("tkstats counters " + name)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad counter line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// histFromTkstats parses "tkstats histogram" output (a flat key/value
// list) into a map.
func histFromTkstats(t *testing.T, app *App, name string) map[string]int64 {
	t.Helper()
	fields := strings.Fields(app.MustEval("tkstats histogram " + name))
	if len(fields)%2 != 0 {
		t.Fatalf("odd histogram output: %q", fields)
	}
	m := make(map[string]int64, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i+1], 10, 64)
		if err != nil {
			t.Fatalf("bad histogram value %q: %v", fields[i+1], err)
		}
		m[fields[i]] = v
	}
	return m
}

// TestTkstatsCachesReduceOpcodeTraffic reproduces the §3.3 claim from
// inside Tcl: the first use of a color and font costs AllocNamedColor /
// OpenFont requests, later uses of the same resources cost none — and
// the per-opcode counters make that directly visible.
func TestTkstatsCachesReduceOpcodeTraffic(t *testing.T) {
	app, _, _ := statsApp(t, false)
	if _, err := app.Color("MediumSeaGreen"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.FontByName("fixed"); err != nil {
		t.Fatal(err)
	}
	allocs := counterFromTkstats(t, app, "requests.AllocNamedColor")
	fonts := counterFromTkstats(t, app, "requests.OpenFont")
	if allocs == 0 || fonts == 0 {
		t.Fatalf("first lookups not counted: allocs=%d fonts=%d", allocs, fonts)
	}
	for i := 0; i < 25; i++ {
		if _, err := app.Color("MediumSeaGreen"); err != nil {
			t.Fatal(err)
		}
		if _, err := app.FontByName("fixed"); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterFromTkstats(t, app, "requests.AllocNamedColor"); got != allocs {
		t.Fatalf("cached color lookups sent %d more AllocNamedColor requests", got-allocs)
	}
	if got := counterFromTkstats(t, app, "requests.OpenFont"); got != fonts {
		t.Fatalf("cached font lookups sent %d more OpenFont requests", got-fonts)
	}
	if hits := counterFromTkstats(t, app, "tk.cache.color.hits"); hits < 25 {
		t.Fatalf("color cache hits = %d, want ≥ 25", hits)
	}
	// Glob filtering: the pattern restricts the listing.
	out := app.MustEval("tkstats counters tk.cache.*")
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, "tk.cache.") {
			t.Fatalf("pattern leaked line %q", line)
		}
	}
}

// TestTkstatsHistogramTracksLatency: the roundtrip histogram's p50
// follows the server's simulated IPC latency — near-zero without it,
// and at least the configured latency with it.
func TestTkstatsHistogramTracksLatency(t *testing.T) {
	app, srv, _ := statsApp(t, false)
	const rounds = 20

	srv.SetLatency(0)
	app.MustEval("tkstats reset")
	for i := 0; i < rounds; i++ {
		if err := app.Disp.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fast := histFromTkstats(t, app, "roundtrip")
	if fast["count"] < rounds {
		t.Fatalf("fast count = %d, want ≥ %d", fast["count"], rounds)
	}

	srv.SetLatency(time.Millisecond)
	app.MustEval("tkstats reset")
	for i := 0; i < rounds; i++ {
		if err := app.Disp.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	slow := histFromTkstats(t, app, "roundtrip")
	if slow["count"] < rounds {
		t.Fatalf("slow count = %d, want ≥ %d", slow["count"], rounds)
	}

	// With 1ms injected latency every round trip takes ≥ 1e6 ns; the
	// p50 estimate never understates the true quantile.
	if slow["p50"] < int64(time.Millisecond) {
		t.Fatalf("p50 with 1ms latency = %dns, want ≥ 1ms", slow["p50"])
	}
	if slow["p50"] <= fast["p50"] {
		t.Fatalf("p50 did not track latency: fast=%dns slow=%dns", fast["p50"], slow["p50"])
	}
	if slow["min"] < int64(time.Millisecond) {
		t.Fatalf("min with 1ms latency = %dns", slow["min"])
	}
}

// TestTkstatsTrace: with a tracer attached, tkstats trace returns the
// decoded protocol lines; without one it reports a usable error; reset
// clears both metrics and trace.
func TestTkstatsTrace(t *testing.T) {
	app, _, tr := statsApp(t, true)
	if err := app.Disp.Sync(); err != nil {
		t.Fatal(err)
	}
	out := app.MustEval("tkstats trace")
	if !strings.Contains(out, "-> req ") || !strings.Contains(out, "Ping") {
		t.Fatalf("trace output missing requests:\n%s", out)
	}
	// Bounded dump: at most 2 lines.
	if n := len(strings.Split(app.MustEval("tkstats trace 2"), "\n")); n > 2 {
		t.Fatalf("tkstats trace 2 returned %d lines", n)
	}
	app.MustEval("tkstats reset")
	if tr.Total() != 0 {
		t.Fatal("reset did not clear the trace ring")
	}
	if got := counterFromTkstats(t, app, "roundtrips"); got > 1 {
		t.Fatalf("reset did not clear counters: roundtrips=%d", got)
	}

	// No tracer → error mentioning how to get one.
	plain, _, _ := statsApp(t, false)
	if _, err := plain.Eval("tkstats trace"); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("expected no-tracer error, got %v", err)
	}
}

// TestTkstatsGauges: the gauges subcommand lists gauges alone, and
// counters lists counters alone, with the same glob filtering.
func TestTkstatsGauges(t *testing.T) {
	app, _, _ := statsApp(t, false)
	if err := app.Disp.Sync(); err != nil {
		t.Fatal(err)
	}
	out := app.MustEval("tkstats gauges")
	if !strings.Contains(out, "inflight ") {
		t.Fatalf("gauges output missing inflight:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "requests") {
			t.Fatalf("counter leaked into gauges output: %q", line)
		}
	}
	// Glob filtering, and an empty match is an empty result, not an error.
	if out := app.MustEval("tkstats gauges inflight"); !strings.HasPrefix(out, "inflight ") {
		t.Fatalf("filtered gauges = %q", out)
	}
	if out := app.MustEval("tkstats gauges no.such.*"); out != "" {
		t.Fatalf("non-matching pattern returned %q", out)
	}
	// Gauges stay out of counters output.
	if out := app.MustEval("tkstats counters inflight"); out != "" {
		t.Fatalf("counters lists the inflight gauge: %q", out)
	}
}

// spansApp is statsApp plus a request-span tracer on both sides,
// sampling every request.
func spansApp(t *testing.T) (*App, *trace.Tracer) {
	t.Helper()
	srv := xserver.New(640, 480)
	t.Cleanup(srv.Close)
	tr := trace.New(1024, 1)
	srv.SetTracer(tr)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.SetTracer(tr)
	app, err := NewApp(d, Config{Name: "spans", Spans: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Destroy)
	return app, tr
}

// TestTkstatsSpans: the spans subcommand exports the ring as Chrome
// trace-event JSON, inline or to a file; reset clears the ring; without
// a tracer the error says how to get one.
func TestTkstatsSpans(t *testing.T) {
	app, tr := spansApp(t)
	if err := app.Disp.Sync(); err != nil {
		t.Fatal(err)
	}
	out := app.MustEval("tkstats spans")
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("tkstats spans output does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("tkstats spans exported no events")
	}

	file := filepath.Join(t.TempDir(), "spans.json")
	app.MustEval("tkstats spans " + file)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("file export does not parse: %v", err)
	}

	app.MustEval("tkstats reset")
	if tr.Len() != 0 {
		t.Fatal("reset did not clear the span ring")
	}

	plain, _, _ := statsApp(t, false)
	if _, err := plain.Eval("tkstats spans"); err == nil || !strings.Contains(err.Error(), "-spans") {
		t.Fatalf("expected no-span-tracer error, got %v", err)
	}
}
