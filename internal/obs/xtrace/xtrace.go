// Package xtrace is an xscope-style wire tracer for the simulated X
// protocol: it formats every request, reply, error and event that
// crosses a display connection into human-readable, sequence-numbered
// trace lines in a bounded ring buffer (internal/obs). Gunther's "The
// X-Files" observation — X11 performance pathologies are only
// diagnosable from per-request protocol traces — is the motivation:
// counters say *how much* crossed the wire, the trace says *what*, in
// order.
//
// The tracer is a formatter. xclient (Config.Trace) hands it the frames
// it writes and reads, above the v2 codec, so a v2 connection traces
// the same v1 frames a v1 one does. Requests are traced in wire order,
// decoded from the bytes sent, before the write; the display numbers
// them and names each reply from the request its cookie awaits.
package xtrace

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/xproto"
)

// maxSummary bounds the decoded-field portion of a trace line so bulk
// requests (property data, images) cannot flood the ring.
const maxSummary = 160

// Tracer formats traced frames into a ring of trace lines. Its methods
// are safe for concurrent use: the display traces requests under its
// writer lock and server frames on its read loop.
type Tracer struct {
	ring *obs.Ring[string]
}

// New returns a tracer retaining the most recent capacity lines.
func New(capacity int) *Tracer {
	return &Tracer{ring: obs.NewRing[string](capacity)}
}

// Last returns the most recent n trace entries in order (all retained
// entries if n ≤ 0).
func (t *Tracer) Last(n int) []obs.Entry[string] { return t.ring.Last(n) }

// Total reports how many lines were ever traced.
func (t *Tracer) Total() uint64 { return t.ring.Total() }

// Reset clears the ring and restarts line numbering.
func (t *Tracer) Reset() { t.ring.Reset() }

// Dump formats the most recent n entries (all if n ≤ 0), one
// sequence-numbered line each.
func (t *Tracer) Dump(n int) []string {
	entries := t.ring.Last(n)
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%04d %s", e.Seq, e.Val)
	}
	return out
}

// Request records one client→server frame as written: seq is its
// sequence number, or 0 for a handshake frame, which the server does
// not number and which is traced without one.
func (t *Tracer) Request(seq uint64, op uint16, payload []byte) {
	summary := ""
	if req := xproto.NewRequest(op); req != nil {
		r := xproto.NewReader(payload)
		req.Decode(r)
		if r.Err() == nil {
			summary = summarize(req)
		} else {
			summary = fmt.Sprintf("<malformed: %v>", r.Err())
		}
	}
	if seq == 0 {
		t.ring.Append(fmt.Sprintf("-> %s %s", xproto.OpName(op), summary))
		return
	}
	t.ring.Append(fmt.Sprintf("-> req #%d %s %s", seq, xproto.OpName(op), summary))
}

// Setup records the connection setup block.
func (t *Tracer) Setup(s *xproto.SetupReply) {
	t.ring.Append(fmt.Sprintf("<- setup root=%d base=%#x %dx%d",
		s.Root, s.ResourceIDBase, s.Width, s.Height))
}

// Reply records a reply of n payload bytes to request seq, whose
// opcode is op; op 0, which no request has, marks a reply no request
// awaits.
func (t *Tracer) Reply(seq uint64, op uint16, n int) {
	name := "reply"
	if op != 0 {
		name = xproto.OpName(op)
	}
	t.ring.Append(fmt.Sprintf("<- rep #%d %s len=%d", seq, name, n))
}

// Error records a protocol error for request seq.
func (t *Tracer) Error(seq uint64, msg string) {
	t.ring.Append(fmt.Sprintf("<- err #%d %q", seq, msg))
}

// Event records one decoded event.
func (t *Tracer) Event(ev *xproto.Event) {
	t.ring.Append("<- evt " + ev.String())
}

// summarize renders a decoded request's fields compactly: the struct's
// field values without the type name, truncated to maxSummary.
func summarize(req xproto.Request) string {
	s := fmt.Sprintf("%+v", req)
	s = strings.TrimPrefix(s, "&")
	if len(s) > maxSummary {
		s = s[:maxSummary] + "…}"
	}
	return s
}
