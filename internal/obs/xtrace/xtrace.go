// Package xtrace is an xscope-style wire tracer for the simulated X
// protocol: it taps a client connection and decodes every request,
// reply, error and event that crosses it into human-readable,
// sequence-numbered trace lines in a bounded ring buffer
// (internal/obs). Gunther's "The X-Files" observation — X11
// performance pathologies are only diagnosable from per-request
// protocol traces — is the motivation: counters say *how much*
// crossed the wire, the trace says *what*, in order.
//
// The tap sits between xclient and the transport (net.Pipe or TCP), so
// it sees exactly the bytes that would cross a process boundary; it
// never modifies them.
package xtrace

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/xproto"
)

// maxSummary bounds the decoded-field portion of a trace line so bulk
// requests (property data, images) cannot flood the ring.
const maxSummary = 160

// Tracer decodes tapped frames into a ring of trace lines.
type Tracer struct {
	ring *obs.Ring[string]

	mu       sync.Mutex
	reqSeq   uint64            // guarded by mu; client request sequence numbers
	pending  map[uint64]uint16 // guarded by mu; request seq → opcode, awaiting reply
	sawSetup bool              // guarded by mu; the first reply is the setup block
}

// New returns a tracer retaining the most recent capacity lines.
func New(capacity int) *Tracer {
	return &Tracer{
		ring:    obs.NewRing[string](capacity),
		pending: make(map[uint64]uint16),
	}
}

// Tap wraps a client-side connection so all traffic through it is
// traced. Reads and writes pass straight through; decoding happens on
// a copy of the byte stream.
func (t *Tracer) Tap(c net.Conn) net.Conn {
	tc := &tapConn{Conn: c, t: t}
	tc.wr.hdrLen = 2 // client→server: [u16 opcode][u32 len]
	tc.wr.emit = t.request
	tc.rd.hdrLen = 1 // server→client: [u8 kind][u32 len]
	tc.rd.emit = t.serverMsg
	return tc
}

// Last returns the most recent n trace entries in order (all retained
// entries if n ≤ 0).
func (t *Tracer) Last(n int) []obs.Entry[string] { return t.ring.Last(n) }

// Total reports how many lines were ever traced.
func (t *Tracer) Total() uint64 { return t.ring.Total() }

// Reset clears the ring and restarts line numbering. Request sequence
// numbers and the reply-matching state are kept: they must stay in sync
// with the connection.
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

// request decodes and records one client→server frame. A handshake
// frame is traced without a number, since the server gives it none.
func (t *Tracer) request(hdr, payload []byte) {
	op := binary.BigEndian.Uint16(hdr)
	rt, _ := xproto.LookupRequest(op)
	summary := ""
	if rt.New != nil {
		req := rt.New()
		r := xproto.NewReader(payload)
		req.Decode(r)
		if r.Err() == nil {
			summary = summarize(req)
		} else {
			summary = fmt.Sprintf("<malformed: %v>", r.Err())
		}
	}
	if rt.Handshake {
		t.ring.Append(fmt.Sprintf("-> %s %s", rt.Name, summary))
		return
	}

	t.mu.Lock()
	t.reqSeq++
	seq := t.reqSeq
	if rt.Reply {
		t.pending[seq] = op
	}
	t.mu.Unlock()
	t.ring.Append(fmt.Sprintf("-> req #%d %s %s", seq, xproto.OpName(op), summary))
}

// serverMsg decodes and records one server→client frame.
func (t *Tracer) serverMsg(hdr, payload []byte) {
	switch hdr[0] {
	case xproto.KindReply:
		t.mu.Lock()
		first := !t.sawSetup
		t.sawSetup = true
		t.mu.Unlock()
		if first {
			var setup xproto.SetupReply
			setup.Decode(xproto.NewReader(payload))
			t.ring.Append(fmt.Sprintf("<- setup root=%d base=%#x %dx%d",
				setup.Root, setup.ResourceIDBase, setup.Width, setup.Height))
			return
		}
		r := xproto.NewReader(payload)
		seq := r.U64()
		t.mu.Lock()
		op, ok := t.pending[seq]
		delete(t.pending, seq)
		t.mu.Unlock()
		name := "reply"
		if ok {
			name = xproto.OpName(op)
		}
		t.ring.Append(fmt.Sprintf("<- rep #%d %s len=%d", seq, name, len(payload)-8))
	case xproto.KindError:
		r := xproto.NewReader(payload)
		seq := r.U64()
		t.mu.Lock()
		delete(t.pending, seq)
		t.mu.Unlock()
		t.ring.Append(fmt.Sprintf("<- err #%d %q", seq, r.String()))
	case xproto.KindEvent:
		var ev xproto.Event
		ev.Decode(xproto.NewReader(payload))
		t.ring.Append("<- evt " + ev.String())
	}
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

// tapConn passes bytes through to the underlying connection while
// feeding copies to per-direction frame scanners. Reads happen on the
// client's read loop and writes under the client's send lock, so each
// scanner is touched by one goroutine only.
type tapConn struct {
	net.Conn
	t      *Tracer
	rd, wr frameScanner
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rd.feed(p[:n])
	}
	return n, err
}

// Write feeds the scanner before the bytes hit the wire: on a blocking
// transport (net.Pipe) the server may read, process and answer a frame
// before Write even returns, and the request must be traced before its
// reply. A frame recorded here but lost to a failed write is traced as
// sent — which is what the client attempted.
func (c *tapConn) Write(p []byte) (int, error) {
	c.wr.feed(p)
	return c.Conn.Write(p)
}

// frameScanner reassembles length-prefixed frames from an arbitrary
// byte-chunk stream: a header of hdrLen bytes, a u32 payload length,
// then the payload.
type frameScanner struct {
	hdrLen int
	buf    []byte
	emit   func(hdr, payload []byte)
}

func (s *frameScanner) feed(p []byte) {
	s.buf = append(s.buf, p...)
	for {
		if len(s.buf) < s.hdrLen+4 {
			return
		}
		n := int(binary.BigEndian.Uint32(s.buf[s.hdrLen:]))
		total := s.hdrLen + 4 + n
		if len(s.buf) < total {
			return
		}
		s.emit(s.buf[:s.hdrLen], s.buf[s.hdrLen+4:total])
		s.buf = append(s.buf[:0], s.buf[total:]...)
	}
}
