package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark runs and reports, with the same
// units, directions and bounds.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, want)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, want)
		}
	}
}

// TestCommandFlags parses the arguments BENCHMARK.json's command is run
// with: double-dash flags, and -trace with a separate 0 or 1.
func TestCommandFlags(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  bool
	}{{"0", false}, {"1", true}} {
		o, err := parseFlags([]string{"--workload", "send", "--seed", "7", "--seconds", "10", "--trace", tc.trace}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(o.workloads, []string{"send"}) || o.seed != 7 || o.seconds != 10 || o.trace != tc.want {
			t.Errorf("--trace %s parsed to %+v", tc.trace, o)
		}
	}
	if _, err := parseFlags([]string{"--workload", "nosuch"}, io.Discard); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// TestSmoke runs every workload briefly with tracing on, which runs the
// untraced phase first, and checks that every operation passed its
// oracle, no span was dropped, the ledger's rows closed on the traced
// operations' wall time, and every declared metric is reported with its
// unit. Dropped spans and a ledger that does not close are problems the
// benchmark reports itself.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 1, seconds: 0.3, trace: true, traceOut: filepath.Join(dir, "spans.json")}
	var results []*result
	for _, w := range workloads {
		r, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed > 0 || len(r.problems) > 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, r.failed, r.attempted, r.problems)
		}
		results = append(results, r)
	}
	for _, traced := range []bool{false, true} {
		line, ok := summary(results, options{trace: traced})
		if !ok {
			t.Errorf("summary reports a failure: %s", line)
		}
		var out struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]value
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("summary line is not JSON: %v\n%s", err, line)
		}
		for _, r := range results {
			for _, m := range metricsFor(traced) {
				v, ok := out.Metrics[r.workload+"/"+m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("summary (trace %v) lacks %s/%s in %s", traced, r.workload, m.name, m.unit)
				}
			}
		}
	}
	if err := writeFiles(results, o); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("-trace-out wrote %d bytes that are not a Chrome trace (%v)", len(b), err)
	}
}

// TestWallScale checks that only the computing share of a wall-clock
// interval follows the host's speed.
func TestWallScale(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		wall, cpu time.Duration
		want      float64
	}{
		{10 * ms, 10 * ms, 0.5}, // computing throughout
		{10 * ms, 15 * ms, 0.5}, // two CPUs busy: still all computing
		{10 * ms, 0, 1},         // waiting throughout
		{10 * ms, 5 * ms, 0.75},
	} {
		if got := wallScale(tc.wall, tc.cpu, 0.5); got != tc.want {
			t.Errorf("wallScale(%v, %v, 0.5) = %v, want %v", tc.wall, tc.cpu, got, tc.want)
		}
	}
}

// TestTimedWindows checks which windows the timing metrics come from:
// every window without steal, but never fewer than a quarter.
func TestTimedWindows(t *testing.T) {
	for _, tc := range []struct {
		steal, want []int64
	}{
		{[]int64{0, 2, 0, 1, 3, 0, 0, 0}, []int64{0, 0, 0, 0, 0}},
		{[]int64{4, 2, 0, 1, 3, 5, 6, 7}, []int64{0, 1}},
		{[]int64{3}, []int64{3}},
	} {
		var ws windows
		for _, s := range tc.steal {
			ws.all = append(ws.all, window{steal: s})
		}
		var got []int64
		for _, w := range ws.timed() {
			got = append(got, w.steal)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("steal %v: timed windows have steal %v, want %v", tc.steal, got, tc.want)
		}
	}
}

// TestLedger checks the critical-path attribution on hand-made spans.
// The rows partition the operation, so each case's rows sum to its 100 ns.
func TestLedger(t *testing.T) {
	span := func(name string, start, end int64, args ...trace.Arg) trace.Span {
		return trace.Span{Name: name, Start: start, Dur: end - start, Args: args}
	}
	for _, tc := range []struct {
		name       string
		own, peer  []trace.Span
		want       [numRows]float64
		wantOffset float64
	}{
		{
			name: "update",
			own: []trace.Span{
				span("bench.update", 10, 90),
				span("tk.event", 20, 40),
				span("client.wait", 50, 80),
				span("client.flush", 50, 55),
				span("server.dispatch", 52, 54),
				span("server.dispatch", 60, 70, trace.Arg{Key: "lockwait.tree", Val: 5}),
				span("server.dispatch", 85, 95),
				span("client.rtt", 0, 100),
			},
			want:       [numRows]float64{rowBench: 20, rowTclTk: 30, rowTkEvent: 20, rowXclient: 3, rowWire: 15, rowXserver: 7, rowLockwait: 5},
			wantOffset: 10,
		},
		{
			name: "send",
			own: []trace.Span{
				span("bench.send", 0, 100),
				span("tk.event", 60, 70),
				span("client.wait", 62, 66),
				span("server.dispatch", 20, 30),
			},
			peer:       []trace.Span{span("tk.event", 10, 50)},
			want:       [numRows]float64{rowTkEvent: 36, rowWire: 54, rowXserver: 10},
			wantOffset: 0,
		},
	} {
		var l ledger
		l.add(0, 100, append(tc.own, span("bench.op", 0, 100)), tc.peer)
		if l.ns != tc.want || l.offpath != tc.wantOffset {
			t.Errorf("%s: rows %v offpath %v, want %v offpath %v", tc.name, l.ns, l.offpath, tc.want, tc.wantOffset)
		}
	}
}
