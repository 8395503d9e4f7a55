package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/tk"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// The benchmark's own calls into each layer's public API.
const (
	callEval = iota
	callUpdate
	callFakeKey
	callSend
	numCalls
)

var callNames = [numCalls]string{"eval", "update", "fakekey", "send"}

// evaler is what the benchmark evaluates scripts in: a *tcl.Interp or
// an application.
type evaler interface {
	Eval(script string) (string, error)
}

// probe times the benchmark's calls into the layers it drives and, while
// a tracer is attached, records each call as a bench.<call> span.
type probe struct {
	ns     [numCalls]int64
	tracer *trace.Tracer
}

func (p *probe) done(call int, start time.Time) {
	d := time.Since(start)
	p.ns[call] += int64(d)
	if p.tracer != nil {
		p.tracer.Record(trace.Span{Name: "bench." + callNames[call], Side: "bench",
			Start: start.UnixNano(), Dur: int64(d)})
	}
}

func (p *probe) eval(e evaler, script string) (string, error) {
	defer p.done(callEval, time.Now())
	return e.Eval(script)
}

func (p *probe) update(app *tk.App) {
	defer p.done(callUpdate, time.Now())
	app.Update()
}

// fakeKey presses and releases ks.
func (p *probe) fakeKey(d *xclient.Display, ks xproto.Keysym) {
	defer p.done(callFakeKey, time.Now())
	d.FakeKey(ks, true)
	d.FakeKey(ks, false)
}

func (p *probe) send(app *tk.App, target, script string) (string, error) {
	defer p.done(callSend, time.Now())
	return app.Send(target, script)
}

// maxReportedErrors bounds how many failed operations a phase describes;
// the rest are only counted.
const maxReportedErrors = 5

// phase is one closed loop of operations.
type phase struct {
	ops, failed int
	errs        []string
	lat         []time.Duration
}

// fail records a failed operation (or check) in the phase.
func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < maxReportedErrors {
		ph.errs = append(ph.errs, err.Error())
	}
}

// quantile returns the nearest-rank q-quantile of sorted, in µs.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)].Nanoseconds()) / 1e3
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowLen is the length of each window of the measured phase: short
// enough that the host's speed seldom changes within one (see speed.go).
const windowLen = 100 * time.Millisecond

// A window is one slice of the measured phase: operations [first, end),
// their wall and CPU time, what was measured just before them, and the
// CPU time the host stole from the start of those measurements to the
// end of the window.
type window struct {
	first, end   int
	start        time.Time
	cpu0         time.Duration
	elapsed, cpu time.Duration
	setA1        float64 // ns per command
	speed        float64
	steal0       int64
	steal        int64 // clock ticks
}

// windows cuts the measured phase into windows. Before each window it
// runs the reference kernel and one batch of 1000 evaluations of
// "set a 1" (Table II row 1) in the workload's interpreter, outside
// every window's time and with their allocations counted apart.
type windows struct {
	in    evaler
	ref   *refInterp
	all   []window
	cur   window
	alloc uint64
	err   error
}

// open starts a window at operation n of the phase.
func (ws *windows) open(n int) {
	steal0 := stealTicks()
	before := allocBytes()
	s := speed(refKernel(ws.ref))
	t := time.Now()
	for j := 0; j < 1000 && ws.err == nil; j++ {
		_, ws.err = ws.in.Eval("set a 1")
	}
	a1 := float64(time.Since(t).Nanoseconds()) / 1000
	ws.alloc += allocBytes() - before
	ws.cur = window{first: n, start: time.Now(), cpu0: cpuTime(), setA1: a1, speed: s, steal0: steal0}
}

// close ends the current window before operation n.
func (ws *windows) close(n int) {
	if n == ws.cur.first {
		return
	}
	ws.cur.end, ws.cur.elapsed, ws.cur.cpu = n, time.Since(ws.cur.start), cpuTime()-ws.cur.cpu0
	ws.cur.steal = stealTicks() - ws.cur.steal0
	ws.all = append(ws.all, ws.cur)
}

// timed returns the windows the timing metrics come from: those in which
// the host stole no CPU time, or, when fewer than a quarter of the
// windows are, the quarter with the least stolen.
func (ws *windows) timed() []window {
	sorted := slices.Clone(ws.all)
	slices.SortStableFunc(sorted, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	n := max(1, len(sorted)/4)
	for n < len(sorted) && sorted[n].steal == 0 {
		n++
	}
	return sorted[:n]
}

// allocBytes is the heap bytes allocated since the program started.
func allocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// snapshot reads every series of the registries through their read-only
// snapshots: counters by name, histograms as name.count and name.sum,
// prefixed c/ for clients (summed), s/ for the server and f/ for a farm.
func snapshot(r layerRegs) map[string]float64 {
	m := make(map[string]float64)
	add := func(side string, reg *obs.Registry) {
		for name, v := range reg.Counters() {
			m[side+name] += float64(v)
		}
		for name, h := range reg.Histograms() {
			m[side+name+".count"] += float64(h.Count)
			m[side+name+".sum"] += float64(h.Sum)
		}
	}
	for _, reg := range r.clients {
		add("c/", reg)
	}
	if r.server != nil {
		add("s/", r.server)
	}
	if r.farm != nil {
		add("f/", r.farm)
	}
	return m
}

// Series each registry must hold once a workload has run. A rename in
// the program then fails the benchmark instead of reading as zero.
var (
	clientSeries = []string{"requests", "roundtrips", "tk.events", "wire.bytes.raw", "wire.bytes.wire",
		"wire.segments.v2", "wire.delta.hits", "wire.delta.misses", "wire.compress.skipped",
		"roundtrip.sum", "flush.batch.sum", "tk.dispatch.sum"}
	serverSeries = []string{"requests", "segments", "wire.bytes.raw", "wire.bytes.wire", "wire.segments.v2",
		"wire.compress.skipped", "render.tiles.damaged", "render.fill.parallel",
		"dispatch.sum", "lockwait.tree.sum", "render.fill.sum", "render.text.sum"}
	farmSeries = []string{"lockwait.sessions.sum"}
)

// missingSeries lists the expected series absent from snap.
func missingSeries(r layerRegs, snap map[string]float64) []string {
	var missing []string
	check := func(side string, names []string) {
		for _, name := range names {
			if _, ok := snap[side+name]; !ok {
				missing = append(missing, side+name)
			}
		}
	}
	if len(r.clients) > 0 {
		check("c/", clientSeries)
	}
	if r.server != nil {
		check("s/", serverSeries)
	}
	if r.farm != nil {
		check("f/", farmSeries)
	}
	return missing
}

// sumMatching adds the deltas of every series whose key has the prefix
// and suffix.
func sumMatching(delta map[string]float64, prefix, suffix string) float64 {
	var sum float64
	for k, v := range delta {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the registry and call-timing per-layer metrics of
// an untraced phase from the registry deltas around it.
func layerMetrics(delta map[string]float64, calls [numCalls]int64, ops, gcs float64) map[string]float64 {
	per := func(v float64) float64 { return ratio(v, ops) }
	us := func(ns float64) float64 { return ratio(ns, ops) / 1e3 }
	both := func(name string) float64 { return delta["c/"+name] + delta["s/"+name] }
	update, dispatch, wait := float64(calls[callUpdate]), delta["c/tk.dispatch.sum"], delta["c/roundtrip.sum"]
	hits := sumMatching(delta, "c/tk.cache.", ".hits")
	return map[string]float64{
		"tcl.eval_us_per_op":              us(float64(calls[callEval])),
		"tk.events_per_op":                per(delta["c/tk.events"]),
		"tk.dispatch_us_per_op":           us(dispatch),
		"tk.update_us_per_op":             us(update),
		"tk.idle_us_per_op":               us(max(0, update-dispatch-wait)),
		"tk.cache_hit_ratio":              ratio(hits, hits+sumMatching(delta, "c/tk.cache.", ".misses")),
		"tk.send_us_per_op":               us(delta["c/tk.send.sum"]),
		"xclient.requests_per_op":         per(delta["c/requests"]),
		"xclient.roundtrips_per_op":       per(delta["c/roundtrips"]),
		"xclient.flushes_per_op":          per(delta["c/flush.batch.count"]),
		"xclient.frames_per_flush":        ratio(delta["c/flush.batch.sum"], delta["c/flush.batch.count"]),
		"xclient.wait_us_per_op":          us(wait),
		"xproto.bytes_raw_per_op":         per(both("wire.bytes.raw")),
		"xproto.bytes_wire_per_op":        per(both("wire.bytes.wire")),
		"xproto.segments_per_op":          per(both("wire.segments.v2")),
		"xproto.delta_hit_ratio":          ratio(delta["c/wire.delta.hits"], delta["c/wire.delta.hits"]+delta["c/wire.delta.misses"]),
		"xproto.compress_skip_ratio":      ratio(both("wire.compress.skipped"), both("wire.segments.v2")),
		"xserver.requests_per_op":         per(delta["s/requests"]),
		"xserver.dispatch_us_per_op":      us(delta["s/dispatch.sum"]),
		"xserver.segments_per_op":         per(delta["s/segments"]),
		"xserver.lockwait_us_per_op":      us(sumMatching(delta, "s/lockwait.", ".sum")),
		"xserver.render_us_per_op":        us(sumMatching(delta, "s/render.", ".sum")),
		"xserver.tiles_damaged_per_op":    per(delta["s/render.tiles.damaged"]),
		"xserver.fill_parallel_per_op":    per(delta["s/render.fill.parallel"]),
		"xserver.farm_lockwait_us_per_op": us(delta["f/lockwait.sessions.sum"]),
		"go.gc_per_op":                    per(gcs),
	}
}

// drain returns the spans a tracer holds and empties it, failing if the
// ring overflowed since the last drain.
func drain(tr *trace.Tracer) ([]trace.Span, error) {
	spans := tr.Spans()
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("span ring dropped %d spans in one operation", n)
	}
	tr.Reset()
	return spans, nil
}
