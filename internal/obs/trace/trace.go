// Package trace is the end-to-end request-span layer: a sampled,
// low-overhead recorder that follows one protocol request through every
// layer of the stack — tk event dispatch, client encode/flush, the wire
// (including any fault-injected jitter), server dispatch with its
// lock wait, reply decode and cookie wake — and exports
// the result as Chrome trace-event JSON.
//
// Correlation is by protocol sequence number: the client numbers every
// request it sends and the server numbers every request it reads, in
// the same order, so both sides of one connection independently apply
// the same sampling rule (seq % interval == 0) and pick the same
// requests without any in-band tagging. Client and server spans for a
// sampled request share its sequence number and can be laid on one
// timeline; "The X-Files" failure mode — per-layer averages fine,
// individual requests collapsing on the wire — becomes directly
// visible as the gap between the client's round-trip span and the
// server's dispatch span.
//
// A Tracer with a zero interval records nothing and costs one atomic
// load per request on the instrumented paths. The cost of sampling 1 in
// 64 is gated by the slo.sampling_overhead row of the repository's gate
// table (gates_test.go), so tracing can stay enabled in
// production-shaped runs.
package trace

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Arg is one numeric span annotation (lock-wait nanoseconds by
// subsystem, flushed frame counts, byte counts).
type Arg struct {
	Key string
	Val int64
}

// Span is one timed phase of a request's journey. Start is wall-clock
// Unix nanoseconds, so spans recorded by different tracers on the same
// machine (a client process and a server process) align on one
// timeline without negotiating an epoch.
type Span struct {
	Seq   uint64 // protocol sequence number (0 for unkeyed spans, e.g. tk events)
	Name  string // phase: client.rtt, client.flush, client.wait, server.dispatch, tk.event
	Side  string // "client", "server" or "tk" — the Chrome trace process row
	Op    string // opcode or event name, may be empty
	Start int64  // Unix nanoseconds
	Dur   int64  // nanoseconds
	Args  []Arg  // optional annotations
}

// End returns the span's end time in Unix nanoseconds.
func (s Span) End() int64 { return s.Start + s.Dur }

// Arg returns the named annotation's value, or 0 when absent.
func (s Span) Arg(key string) int64 {
	for _, a := range s.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// Now returns the current span timestamp (Unix nanoseconds).
func Now() int64 { return time.Now().UnixNano() }

// Tracer collects sampled spans into a bounded ring. All methods are
// safe for concurrent use; Record takes one short mutex hold, and
// Sampled is a single atomic load plus a modulo.
type Tracer struct {
	interval atomic.Uint64 // sample 1-in-interval requests; 0 disables
	ring     *obs.Ring[Span]
}

// DefaultInterval is the sampling interval tracing-enabled entry points
// (wish -spans, xsimd) use unless told otherwise: 1 request in 64,
// chosen so pipelined round trips stay within the slo.sampling_overhead
// bound of the gate table (gates_test.go).
const DefaultInterval = 64

// New returns a tracer retaining at most capacity spans (minimum 1),
// sampling one request in interval (0 disables sampling).
func New(capacity, interval int) *Tracer {
	t := &Tracer{ring: obs.NewRing[Span](capacity)}
	t.SetInterval(interval)
	return t
}

// SetInterval changes the sampling interval: one request in n is
// sampled; n ≤ 0 disables sampling. Safe to call at any time.
func (t *Tracer) SetInterval(n int) {
	if n < 0 {
		n = 0
	}
	t.interval.Store(uint64(n))
}

// Interval returns the current sampling interval (0 when disabled).
func (t *Tracer) Interval() int { return int(t.interval.Load()) }

// Sampled reports whether the request with the given sequence number is
// selected for span recording. Both ends of a connection apply this to
// the same per-connection sequence numbers, so they agree on which
// requests to follow without coordination.
func (t *Tracer) Sampled(seq uint64) bool {
	n := t.interval.Load()
	return n != 0 && seq%n == 0
}

// Record appends one span, overwriting the oldest if the ring is full.
func (t *Tracer) Record(s Span) { t.ring.Append(s) }

// Spans returns the retained spans in recording order.
func (t *Tracer) Spans() []Span {
	entries := t.ring.Last(0)
	out := make([]Span, len(entries))
	for i, e := range entries {
		out[i] = e.Val
	}
	return out
}

// Len reports how many spans are currently retained.
func (t *Tracer) Len() int { return t.ring.Len() }

// Total reports how many spans were ever recorded.
func (t *Tracer) Total() uint64 { return t.ring.Total() }

// Dropped reports how many spans were overwritten before export.
func (t *Tracer) Dropped() uint64 { return t.ring.Dropped() }

// Reset discards all retained spans and the drop count. The sampling
// interval is kept.
func (t *Tracer) Reset() { t.ring.Reset() }
