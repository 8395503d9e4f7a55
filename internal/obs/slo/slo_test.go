package slo

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func TestIsErrorCounter(t *testing.T) {
	for name, want := range map[string]bool{
		"errors.async":      true,
		"fault.jitter":      true,
		"roundtrip.timeout": true,
		"protocol.corrupt":  true,
		"stalled":           true,
		"dropped":           true,
		"tk.send.timeout":   true,
		"requests":          false,
		"requests.Ping":     false,
		"roundtrips":        false,
		"trace.sampled":     false,
	} {
		if got := IsErrorCounter(name); got != want {
			t.Errorf("IsErrorCounter(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestBuildFoldsRegistries(t *testing.T) {
	server := obs.NewRegistry()
	client := obs.NewRegistry()
	for i := 0; i < 100; i++ {
		server.Histogram("dispatch").ObserveNs(int64(1000 * (i + 1)))
		client.Histogram("roundtrip").ObserveNs(int64(2000 * (i + 1)))
	}
	server.Histogram("lockwait.tree").ObserveNs(500)
	server.Histogram("lockwait.atoms").ObserveNs(0)
	server.Counter("requests").Add(10000)
	server.Counter("stalled").Inc()
	client.Counter("errors.async").Add(2)
	client.Counter("requests").Add(40) // must NOT override the server's view

	r := Build(Sources{Server: server, Client: client})
	if r.Dispatch == nil || r.Dispatch.Count != 100 {
		t.Fatalf("dispatch quantiles missing or wrong: %+v", r.Dispatch)
	}
	if r.RoundTrip == nil || r.RoundTrip.Count != 100 {
		t.Fatalf("round-trip quantiles missing or wrong: %+v", r.RoundTrip)
	}
	if r.Dispatch.P50Ns > r.Dispatch.P99Ns || r.Dispatch.MaxNs < r.Dispatch.P99Ns {
		t.Fatalf("dispatch quantiles out of order: %+v", r.Dispatch)
	}
	if len(r.Lockwait) != 2 {
		t.Fatalf("lockwait = %v, want tree and atoms", r.Lockwait)
	}
	if _, ok := r.Lockwait["tree"]; !ok {
		t.Fatal("lockwait.tree missing (prefix should be stripped)")
	}

	eb := r.ErrorBudget
	if eb.Requests != 10000 {
		t.Fatalf("requests = %d, want the server's 10000", eb.Requests)
	}
	if eb.Errors != 3 {
		t.Fatalf("errors = %d, want 3 (stalled + 2 errors.async)", eb.Errors)
	}
	if eb.ByCounter["stalled"] != 1 || eb.ByCounter["errors.async"] != 2 {
		t.Fatalf("by_counter = %v", eb.ByCounter)
	}
	// The 0.999 target over 10000 requests allows 10 errors; 3 spent
	// leaves 70%.
	if eb.Allowed < 9.99 || eb.Allowed > 10.01 {
		t.Fatalf("allowed = %g, want 10", eb.Allowed)
	}
	if eb.RemainingFraction < 0.69 || eb.RemainingFraction > 0.71 {
		t.Fatalf("remaining = %g, want 0.7", eb.RemainingFraction)
	}
}

func TestBuildErrorBudgetEdges(t *testing.T) {
	// Overrun clamps to zero.
	reg := obs.NewRegistry()
	reg.Counter("requests").Add(100)
	reg.Counter("stalled").Add(50)
	r := Build(Sources{Server: reg})
	if r.ErrorBudget.RemainingFraction != 0 {
		t.Fatalf("overrun budget remaining = %g, want 0", r.ErrorBudget.RemainingFraction)
	}

	// No requests, no errors: the budget is intact, not NaN.
	r = Build(Sources{Server: obs.NewRegistry()})
	if r.ErrorBudget.RemainingFraction != 1 {
		t.Fatalf("empty-run budget remaining = %g, want 1", r.ErrorBudget.RemainingFraction)
	}
	if r.ErrorBudget.Target != DefaultTarget {
		t.Fatalf("target = %g, want default %g", r.ErrorBudget.Target, DefaultTarget)
	}

	// Client-only sources still produce a requests count.
	client := obs.NewRegistry()
	client.Counter("requests").Add(7)
	r = Build(Sources{Client: client})
	if r.ErrorBudget.Requests != 7 {
		t.Fatalf("client-only requests = %d, want 7", r.ErrorBudget.Requests)
	}
}

func TestSpanRollup(t *testing.T) {
	var spans []trace.Span
	// 10 paired round trips: rtt 10µs, dispatch 4µs → 6µs of wire.
	for i := 1; i <= 10; i++ {
		spans = append(spans,
			trace.Span{Seq: uint64(i), Name: "client.rtt", Dur: 10_000},
			trace.Span{Seq: uint64(i), Name: "server.dispatch", Dur: 4_000},
		)
	}
	// Unpaired and unrelated spans must be ignored.
	spans = append(spans,
		trace.Span{Seq: 99, Name: "client.rtt", Dur: 1_000_000},
		trace.Span{Seq: 5, Name: "client.flush", Dur: 999},
	)
	r := Build(Sources{Spans: spans})
	if r.Spans == nil {
		t.Fatal("no span rollup")
	}
	if r.Spans.SampledRoundTrips != 10 {
		t.Fatalf("sampled round trips = %d, want 10", r.Spans.SampledRoundTrips)
	}
	if r.Spans.WireP50Ns != 6_000 || r.Spans.WireMaxNs != 6_000 {
		t.Fatalf("wire p50/max = %d/%d, want 6000/6000", r.Spans.WireP50Ns, r.Spans.WireMaxNs)
	}

	// A dispatch longer than its round trip (clock skew between
	// processes) must not produce a negative wire time.
	r = Build(Sources{Spans: []trace.Span{
		{Seq: 1, Name: "client.rtt", Dur: 1_000},
		{Seq: 1, Name: "server.dispatch", Dur: 5_000},
	}})
	if r.Spans != nil {
		t.Fatalf("negative wire sample should be dropped, got %+v", r.Spans)
	}
}

func TestMarshalReport(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("requests").Add(10)
	reg.Histogram("dispatch").ObserveNs(100)
	data, err := MarshalReport(Build(Sources{Server: reg}))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"dispatch"`, `"error_budget"`, `"p99_ns"`, `"remaining_fraction"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshaled report missing %s: %s", want, data)
		}
	}
}
