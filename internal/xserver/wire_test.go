package xserver

import (
	"encoding/binary"
	"testing"

	"repro/internal/xproto"
)

// TestMidStreamUpgradeIgnored: OpUpgradeWire is honoured only as a
// connection's first frame after an optional attach. Later in the
// stream it is consumed without a sequence number and without an ack,
// so the next frame is the reply a v1 client expects and later batches
// stay unwrapped.
func TestMidStreamUpgradeIgnored(t *testing.T) {
	s := New(100, 100)
	defer s.Close()
	nc := rawClient(t, s)

	send := func(reqs ...xproto.Request) {
		t.Helper()
		var buf xproto.Writer
		for _, r := range reqs {
			buf.RequestFrame(r)
		}
		if _, err := nc.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	// wantReply reads the next frame and requires it to be a plain v1
	// reply to request seq.
	wantReply := func(seq uint64) {
		t.Helper()
		kind, payload, err := xproto.ReadServerFrame(nc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kind != xproto.KindReply {
			t.Fatalf("frame kind %d, want the reply to request %d (kind %d)", kind, seq, xproto.KindReply)
		}
		if got := binary.BigEndian.Uint64(payload); got != seq {
			t.Fatalf("reply to request %d, want %d", got, seq)
		}
	}

	send(&xproto.PingReq{})
	wantReply(1)
	send(&xproto.UpgradeWireReq{Version: 2}, &xproto.PingReq{})
	wantReply(2)
	// A screenshot reply is far above the size a v2 server wraps.
	send(&xproto.ScreenshotReq{})
	wantReply(3)
	if n := s.Metrics().Counter("wire.segments.v2").Value(); n != 0 {
		t.Fatalf("server wrapped %d v2 segments after a mid-stream upgrade", n)
	}
}

// TestReplyAndEventAllocateNothing: a reply and an event are encoded
// straight into the connection's output buffer, so once the buffer has
// grown, neither allocates.
func TestReplyAndEventAllocateNothing(t *testing.T) {
	s := New(100, 100)
	defer s.Close()
	c := &conn{s: s, ready: make(chan struct{}, 1)}
	ev := &xproto.Event{Type: xproto.Expose, Window: 5, Width: 10, Height: 20}
	run := func() {
		c.reply(func(w *xproto.Writer) { w.PutU32(7) })
		s.sendEvent(c, ev)
		c.outMu.Lock()
		c.out.Reset()
		c.frames = 0
		c.outMu.Unlock()
	}
	run() // grows the buffer
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("a reply and an event allocated %v times, want 0", n)
	}
}
