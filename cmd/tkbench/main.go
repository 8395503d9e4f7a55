// Command tkbench is the repository's benchmark. It runs six seeded
// workloads, each a closed loop of one user-visible operation driven from
// this process: Tcl evaluation, a key press into a text browser, Table
// II's create/display/delete of 50 buttons and its send, a canvas slide
// change, and the same slide change against a remote session farm. For
// each it prints end-to-end metrics with their units and regression
// bounds, per-layer metrics read from outside the program (its own timed
// calls into public APIs and read-only registry snapshots), and, when
// traced, a ledger of where each operation's time went. Every operation's
// output is checked; any failed check makes the exit status non-zero.
//
// Usage:
//
//	tkbench [-workload name]... [-seed N] [-seconds S] [-trace 0|1] [-trace-out spans.json] [-json out.json]
//
// The benchmark is a Go module of its own that uses the repository's
// module through a replace directive, so run it from this directory
// (go run .) or through run.sh from the repository root. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
)

// metric describes one reported number. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metric struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metric{
	{"op_p50_us", "us", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"heap_mb", "MiB", "lower", 0.10},
	{"set_a_1_ns", "ns", "lower", 0.20},
}

// perLayer also holds op_p99_us, the tail of the whole operation. On a
// shared host its run-to-run spread can exceed any bound an end-to-end
// metric may have, so it is reported without one.
var perLayer = []metric{
	{name: "op_p99_us", unit: "us", better: "lower"},
	{name: "tcl.cmds_per_op", unit: "count", better: "lower"},
	{name: "tcl.eval_us_per_op", unit: "us", better: "lower"},
	{name: "tk.events_per_op", unit: "count", better: "lower"},
	{name: "tk.dispatch_us_per_op", unit: "us", better: "lower"},
	{name: "tk.update_us_per_op", unit: "us", better: "lower"},
	{name: "tk.idle_us_per_op", unit: "us", better: "lower"},
	{name: "tk.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "tk.send_us_per_op", unit: "us", better: "lower"},
	{name: "xclient.requests_per_op", unit: "count", better: "lower"},
	{name: "xclient.roundtrips_per_op", unit: "count", better: "lower"},
	{name: "xclient.flushes_per_op", unit: "count", better: "lower"},
	{name: "xclient.frames_per_flush", unit: "count", better: "higher"},
	{name: "xclient.wait_us_per_op", unit: "us", better: "lower"},
	{name: "xproto.bytes_raw_per_op", unit: "B", better: "lower"},
	{name: "xproto.bytes_wire_per_op", unit: "B", better: "lower"},
	{name: "xproto.segments_per_op", unit: "count", better: "lower"},
	{name: "xproto.delta_hit_ratio", unit: "ratio", better: "higher"},
	{name: "xproto.compress_skip_ratio", unit: "ratio", better: "lower"},
	{name: "xserver.requests_per_op", unit: "count", better: "lower"},
	{name: "xserver.dispatch_us_per_op", unit: "us", better: "lower"},
	{name: "xserver.segments_per_op", unit: "count", better: "lower"},
	{name: "xserver.lockwait_us_per_op", unit: "us", better: "lower"},
	{name: "xserver.render_us_per_op", unit: "us", better: "lower"},
	{name: "xserver.tiles_damaged_per_op", unit: "count", better: "lower"},
	{name: "xserver.fill_parallel_per_op", unit: "count", better: "higher"},
	{name: "xserver.farm_lockwait_us_per_op", unit: "us", better: "lower"},
	{name: "go.gc_per_op", unit: "count", better: "lower"},
	{name: "self.bench_us_per_op", unit: "us", better: "lower"},
	{name: "self.tcl_tk_us_per_op", unit: "us", better: "lower"},
	{name: "self.tk_event_us_per_op", unit: "us", better: "lower"},
	{name: "self.xclient_us_per_op", unit: "us", better: "lower"},
	{name: "self.wire_us_per_op", unit: "us", better: "lower"},
	{name: "self.xserver_us_per_op", unit: "us", better: "lower"},
	{name: "self.lockwait_us_per_op", unit: "us", better: "lower"},
	{name: "xserver.offpath_us_per_op", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

const (
	// coldSetups is how many times each workload is set up from scratch;
	// setup_s is their median and the last one is measured.
	coldSetups = 9
	// ringCapacity bounds the spans one traced operation may record; the
	// ring is drained after every operation.
	ringCapacity = 1 << 15
	// exportOps is how many traced operations per workload -trace-out
	// keeps.
	exportOps = 50
)

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	traceOut  string
	jsonOut   string
}

// Phase lengths, all derived from -seconds.
func (o options) measured() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }
func (o options) warmup() time.Duration   { return o.measured() / 10 }
func (o options) traced() time.Duration   { return o.measured() * 3 / 10 }

// result is one workload's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	speed     float64 // the host's median speed in the untraced phase
	timed     int     // operations of the untraced phase the timing metrics cover
	spans     []trace.Span
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

// switchFlag is a boolean flag that always takes a value (-trace 1), so
// it parses the same in any argument position.
type switchFlag bool

func (s *switchFlag) String() string { return strconv.FormatBool(bool(*s)) }
func (s *switchFlag) Set(v string) error {
	b, err := strconv.ParseBool(v)
	*s = switchFlag(b)
	return err
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var names listFlag
	var tr switchFlag
	fs := flag.NewFlagSet("tkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Var(&names, "workload", "workload to run (repeatable; default all): "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload (warm-up is a tenth of it, the traced phase three tenths)")
	fs.Var(&tr, "trace", "1 adds a traced phase and reports the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced phase's spans as Chrome trace JSON to this file")
	fs.StringVar(&o.jsonOut, "json", "", "write every result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return o, err // the flag set has printed it
	}
	o.trace = bool(tr) || o.traceOut != ""
	o.workloads = names
	if len(o.workloads) == 0 {
		o.workloads = workloadNames()
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.seconds <= 0:
		err = fmt.Errorf("-seconds must be positive")
	}
	for _, name := range o.workloads {
		if !slices.Contains(workloadNames(), name) {
			err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "tkbench: %v\n", err)
	}
	return o, err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	var results []*result
	for _, name := range o.workloads {
		for _, w := range workloads {
			if w.name != name {
				continue
			}
			r, err := runWorkload(w, o)
			if err != nil {
				fmt.Fprintf(stderr, "tkbench: %s: %v\n", name, err)
				return 1
			}
			printResult(stdout, r, o)
			results = append(results, r)
		}
	}
	if err := writeFiles(results, o); err != nil {
		fmt.Fprintf(stderr, "tkbench: %v\n", err)
		return 1
	}
	line, ok := summary(results, o)
	fmt.Fprintln(stdout, line)
	if !ok {
		for _, r := range results {
			for _, p := range r.problems {
				fmt.Fprintf(stderr, "tkbench: %s: %s\n", r.workload, p)
			}
		}
		return 1
	}
	return 0
}

// bench drives one set-up workload instance through its phases.
type bench struct {
	o    options
	inst instance
	ref  *refInterp
	p    probe
	next int // index of the next operation
	r    *result
}

// runWorkload sets a workload up, warms it, measures it untraced and,
// with -trace, traced.
func runWorkload(w workload, o options) (*result, error) {
	b := &bench{o: o, ref: newRefInterp(), r: &result{workload: w.name, metrics: make(map[string]float64)}}
	setups := make([]float64, coldSetups)
	for k := range setups {
		s := speed(refKernel(b.ref))
		start, cpu0 := time.Now(), cpuTime()
		inst, err := w.setup(o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(start)
		setups[k] = wall.Seconds() * wallScale(wall, cpuTime()-cpu0, s)
		if b.inst != nil {
			b.inst.close()
		}
		b.inst = inst
	}
	defer b.inst.close()
	b.r.metrics["setup_s"] = median(setups)

	b.account(b.loop(o.warmup(), nil))
	p50, fingerprint, err := b.untraced()
	if err != nil {
		return nil, err
	}
	if o.trace {
		b.traced(p50, fingerprint)
	}
	return b.r, nil
}

// loop runs operations back to back for d, calling after (if set) once
// each has been timed.
func (b *bench) loop(d time.Duration, after func(i int, start time.Time, lat time.Duration)) phase {
	var ph phase
	begin := time.Now()
	for time.Since(begin) < d {
		start := time.Now()
		err := b.inst.op(&b.p, b.next)
		lat := time.Since(start)
		if err != nil {
			ph.fail(fmt.Errorf("operation %d: %w", b.next, err))
		}
		ph.lat = append(ph.lat, lat)
		if after != nil {
			after(b.next, start, lat)
		}
		b.next++
		ph.ops++
	}
	return ph
}

func (b *bench) account(ph phase) {
	b.r.attempted += ph.ops
	b.r.failed += ph.failed
	b.r.problems = append(b.r.problems, ph.errs...)
}

// untraced measures the end-to-end metrics and the registry per-layer
// metrics, then runs the end-of-run oracles. It returns the median
// operation latency as measured, at the host's own speed, and the
// oracle's fingerprint.
//
// The timing metrics come from the windows in which the host stole no
// CPU time, scaled to the nominal host speed window by window (see
// speed.go); the per-layer times are as measured, over the whole phase.
func (b *bench) untraced() (p50 float64, fingerprint string, err error) {
	r, regs := b.r, b.inst.registries()
	b.p.ns = [numCalls]int64{}
	before := snapshot(regs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ws := &windows{in: b.inst.interp(), ref: b.ref}
	ws.open(0)
	n := 0
	ph := b.loop(b.o.measured(), func(int, time.Time, time.Duration) {
		n++
		if time.Since(ws.cur.start) >= windowLen {
			ws.close(n)
			ws.open(n)
		}
	})
	ws.close(n)
	runtime.ReadMemStats(&m1)
	after := snapshot(regs)
	b.account(ph)
	if ws.err != nil {
		return 0, "", fmt.Errorf("set a 1: %w", ws.err)
	}
	if missing := missingSeries(regs, after); len(missing) > 0 {
		return 0, "", fmt.Errorf("expected metric series are missing from the registries: %s", strings.Join(missing, ", "))
	}
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	ops := float64(ph.ops)
	r.metrics["alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc-ws.alloc) / 1024 / ops
	for k, v := range layerMetrics(delta, b.p.ns, ops, float64(m1.NumGC-m0.NumGC)) {
		r.metrics[k] = v
	}

	scaled := make([]time.Duration, 0, len(ph.lat))
	var elapsed, cpu float64 // seconds and µs at the nominal speed
	var setA1, speeds []float64
	for _, w := range ws.timed() {
		k := wallScale(w.elapsed, w.cpu, w.speed)
		for _, l := range ph.lat[w.first:w.end] {
			scaled = append(scaled, time.Duration(float64(l)*k))
		}
		elapsed += w.elapsed.Seconds() * k
		cpu += float64(w.cpu.Nanoseconds()) / 1e3 * w.speed
		setA1 = append(setA1, w.setA1*w.speed)
		speeds = append(speeds, w.speed)
	}
	slices.Sort(scaled)
	r.metrics["op_p50_us"] = quantile(scaled, 0.50)
	r.metrics["op_p99_us"] = quantile(scaled, 0.99)
	r.metrics["ops_per_s"] = float64(len(scaled)) / elapsed
	r.metrics["cpu_us_per_op"] = cpu / float64(len(scaled))
	r.metrics["set_a_1_ns"] = median(setA1)
	r.speed, r.timed = median(speeds), len(scaled)
	slices.Sort(ph.lat)
	p50 = quantile(ph.lat, 0.50)

	// Two collections: the first moves sync.Pool contents to their victim
	// caches, the second frees them.
	ph.lat = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.metrics["heap_mb"] = float64(m1.HeapAlloc) / (1 << 20)

	fingerprint, err = b.inst.verify()
	if err != nil {
		r.failed++
		r.problem("end-of-run check: %v", err)
	} else if sb, ok := b.inst.(*slidesBench); ok {
		ref, err := sb.reference()
		switch {
		case err != nil:
			r.problem("reference deck: %v", err)
		case ref != fingerprint:
			r.problem("slide screenshots differ between wire v1 on a plain server and wire v2 on a farm session: %s vs %s", fingerprint, ref)
		}
	}
	return p50, fingerprint, nil
}

// traced runs the traced phase: one tracer at interval 1 shared by the
// client and server (plus one for a peer application), drained after
// every operation into the ledger. Its oracles must agree with the
// untraced phase's.
func (b *bench) traced(untracedP50 float64, fingerprint string) {
	r := b.r
	tr := trace.New(ringCapacity, 1)
	peer := trace.New(ringCapacity, 1)
	var cmds atomic.Int64
	b.inst.traceOn(tr, peer, func([]string) { cmds.Add(1) })
	b.p.tracer = tr
	var led ledger
	first := -1
	ph := b.loop(b.o.traced(), func(i int, start time.Time, lat time.Duration) {
		tr.Record(trace.Span{Seq: uint64(i), Name: "bench.op", Side: "bench", Start: start.UnixNano(), Dur: int64(lat)})
		own, err := drain(tr)
		var peerSpans []trace.Span
		if err == nil {
			peerSpans, err = drain(peer)
		}
		if err != nil {
			r.problem("operation %d: %v", i, err)
			return
		}
		led.add(start.UnixNano(), start.UnixNano()+int64(lat), own, peerSpans)
		if first < 0 {
			first = i
		}
		if b.o.traceOut != "" && i-first < exportOps {
			r.spans = append(r.spans, own...)
			for _, s := range peerSpans {
				s.Side = "peer"
				r.spans = append(r.spans, s)
			}
		}
	})
	b.account(ph)
	ops := float64(ph.ops)
	r.metrics["tcl.cmds_per_op"] = float64(cmds.Load()) / ops
	var rows float64
	for k, v := range led.metrics() {
		r.metrics[k] = v
		if strings.HasPrefix(k, "self.") {
			rows += v
		}
	}
	var wall time.Duration
	for _, l := range ph.lat {
		wall += l
	}
	if mean := float64(wall.Nanoseconds()) / 1e3 / ops; math.Abs(rows-mean) > mean/10 {
		r.problem("the ledger's rows sum to %.1f us per operation, but traced operations took %.1f us on average", rows, mean)
	}
	slices.Sort(ph.lat)
	r.metrics["trace.overhead_pct"] = (ratio(quantile(ph.lat, 0.5), untracedP50) - 1) * 100

	again, err := b.inst.verify()
	switch {
	case err != nil:
		r.failed++
		r.problem("end-of-run check after tracing: %v", err)
	case again != fingerprint:
		r.problem("screenshots changed under tracing: %s untraced vs %s traced", fingerprint, again)
	}
}

func metricsFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult writes a workload's metrics, one per line, with units and
// bounds.
func printResult(w io.Writer, r *result, o options) {
	fmt.Fprintf(w, "tkbench: %s (seed %d, %gs measured, host speed %.2f of nominal): %d operations, %d timed, %d failed\n",
		r.workload, o.seed, o.seconds, r.speed, r.attempted, r.timed, r.failed)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s bound %2.0f%% (%s is better)\n", m.name, r.metrics[m.name], m.unit, m.bound*100, m.better)
	}
	for _, m := range perLayer {
		if v, ok := r.metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s (%s is better)\n", m.name, v, m.unit, m.better)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output: one JSON object with the metrics
// -trace selects. Several workloads key them as workload/metric.
func summary(results []*result, o options) (string, bool) {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if len(r.problems) > 0 || r.failed > 0 {
			out.Correct = false
		}
		for _, m := range metricsFor(o.trace) {
			key := m.name
			if len(results) > 1 {
				key = r.workload + "/" + m.name
			}
			out.Metrics[key] = value{r.metrics[m.name], m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), out.Correct
}

// writeFiles writes the -json report and the -trace-out spans.
func writeFiles(results []*result, o options) error {
	if o.jsonOut != "" {
		type report struct {
			Workload  string           `json:"workload"`
			Seed      int64            `json:"seed"`
			Seconds   float64          `json:"seconds"`
			HostSpeed float64          `json:"host_speed"`
			Attempted int              `json:"attempted"`
			Timed     int              `json:"timed"`
			Failed    int              `json:"failed"`
			Problems  []string         `json:"problems"`
			Metrics   map[string]value `json:"metrics"`
		}
		var reports []report
		for _, r := range results {
			rep := report{r.workload, o.seed, o.seconds, r.speed, r.attempted, r.timed, r.failed, r.problems, make(map[string]value)}
			for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
				if v, ok := r.metrics[m.name]; ok {
					rep.Metrics[m.name] = value{v, m.unit}
				}
			}
			reports = append(reports, rep)
		}
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		var spans []trace.Span
		for _, r := range results {
			spans = append(spans, r.spans...)
		}
		b, err := trace.ChromeJSON(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
