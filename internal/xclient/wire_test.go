package xclient_test

import (
	"bytes"
	"testing"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// wireWorkload drives a deterministic drawing sequence over d and
// returns the resulting screenshot pixels. Identical workloads must
// yield identical pixels regardless of the negotiated wire protocol.
func wireWorkload(t *testing.T, d *xclient.Display) []byte {
	t.Helper()
	w := d.CreateWindow(d.Root, 0, 0, 200, 150, 0, xclient.WindowAttributes{Background: 0x202020})
	d.MapWindow(w)
	gc := d.CreateGC(xclient.GCValues{Foreground: 0xFF4080})
	// A PolyFillRectangle storm: repeated frames that compress well.
	for i := 0; i < 300; i++ {
		d.FillRectangle(w, gc, i%40, (i*7)%90, 12, 9)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	shot, err := d.Screenshot(w)
	if err != nil {
		t.Fatalf("Screenshot: %v", err)
	}
	return shot.Pixels
}

// TestWireNegotiationMatrix exercises every pairing of v1/v2 clients
// and servers plus the session-farm path, proving the upgrade is
// transparent: every combination completes the same workload with the
// same pixels, and only the v2↔v2 pairing actually speaks v2.
func TestWireNegotiationMatrix(t *testing.T) {
	var basePixels []byte
	var baseRaw uint64 // the v1 run's frame bytes
	run := func(t *testing.T, d *xclient.Display, wantVersion int) []byte {
		t.Helper()
		if got := d.WireVersion(); got != wantVersion {
			t.Fatalf("WireVersion = %d, want %d", got, wantVersion)
		}
		pixels := wireWorkload(t, d)
		if errs := d.TakeErrors(); len(errs) > 0 {
			t.Fatalf("async errors: %v", errs)
		}
		if basePixels != nil && !bytes.Equal(pixels, basePixels) {
			t.Fatalf("pixels differ from the v1 baseline")
		}
		return pixels
	}

	t.Run("v1-client_v2-server", func(t *testing.T) {
		// The baseline: a default client against a v2-capable server
		// must behave exactly as before the upgrade existed.
		srv := xserver.New(200, 150)
		t.Cleanup(srv.Close)
		d, err := xclient.Open(srv.ConnectPipe())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(d.Close)
		basePixels = run(t, d, 1)
		baseRaw = d.Metrics().Counter("wire.bytes.raw").Value()
		if n := srv.Metrics().Counter("wire.segments.v2").Value(); n != 0 {
			t.Fatalf("v1 client produced %d v2 segments", n)
		}
	})

	t.Run("v2-client_v2-server", func(t *testing.T) {
		srv := xserver.New(200, 150)
		t.Cleanup(srv.Close)
		d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		t.Cleanup(d.Close)
		run(t, d, 2)
		m := d.Metrics()
		if n := m.Counter("wire.segments.v2").Value(); n == 0 {
			t.Fatalf("v2 connection sent no segments")
		}
		raw, wire := m.Counter("wire.bytes.raw").Value(), m.Counter("wire.bytes.wire").Value()
		// Segments carry exactly the frames a v1 connection sends.
		if baseRaw != 0 && raw != baseRaw {
			t.Fatalf("v2 segments carried %d frame bytes, v1 sent %d", raw, baseRaw)
		}
		if raw == 0 || wire >= raw {
			t.Fatalf("v2 did not shrink the wire: raw %d, wire %d", raw, wire)
		}
	})

	t.Run("v2-client_v1-server", func(t *testing.T) {
		// Server declines the upgrade: the client must fall back to v1
		// transparently and finish the same workload.
		srv := xserver.New(200, 150)
		srv.SetWireV2(false)
		t.Cleanup(srv.Close)
		d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		t.Cleanup(d.Close)
		run(t, d, 1)
		if n := d.Metrics().Counter("wire.segments.v2").Value(); n != 0 {
			t.Fatalf("declined upgrade still sent %d segments", n)
		}
	})

	t.Run("v2-client_farm-session", func(t *testing.T) {
		// Through the farm's attach handshake: the upgrade frame follows
		// the attach frame and must reach the session's request loop.
		farm := xserver.NewFarm(xserver.FarmOptions{Width: 200, Height: 150, MaxSessions: 2})
		t.Cleanup(farm.Close)
		d, err := xclient.OpenWith(farm.ConnectPipe(), xclient.Config{Session: "wiretest", Attach: true, Wire: xclient.WireV2})
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		t.Cleanup(d.Close)
		run(t, d, 2)
		if n := d.Metrics().Counter("wire.segments.v2").Value(); n == 0 {
			t.Fatalf("farm session sent no v2 segments")
		}
	})
}

// TestWireV2ServerSegments verifies the server→client direction also
// wraps: a reply-heavy workload over v2 must produce server-side
// segments and compressed bytes savings on large replies.
func TestWireV2ServerSegments(t *testing.T) {
	srv := xserver.New(300, 200)
	t.Cleanup(srv.Close)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(d.Close)

	w := d.CreateWindow(d.Root, 0, 0, 300, 200, 0, xclient.WindowAttributes{Background: 0x808080})
	d.MapWindow(w)
	// Screenshots are large, uniform replies: highly compressible.
	for i := 0; i < 4; i++ {
		if _, err := d.Screenshot(w); err != nil {
			t.Fatalf("Screenshot: %v", err)
		}
	}
	segs := srv.Metrics().Counter("wire.segments.v2").Value()
	if segs == 0 {
		t.Fatalf("server wrapped no v2 segments")
	}
	raw := srv.Metrics().Counter("wire.bytes.raw").Value()
	wire := srv.Metrics().Counter("wire.bytes.wire").Value()
	if raw == 0 || wire >= raw {
		t.Fatalf("server compression did not shrink the wire: raw %d, wire %d", raw, wire)
	}
}

// TestWireV2PipelinedCookies proves the sequence lockstep survives the
// upgrade: pipelined reply-bearing requests resolve in order with the
// right sequence numbers.
func TestWireV2PipelinedCookies(t *testing.T) {
	srv := xserver.New(100, 100)
	t.Cleanup(srv.Close)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(d.Close)

	var cookies []*xclient.Cookie
	for i := 0; i < 32; i++ {
		cookies = append(cookies, d.SendWithReply(&xproto.PingReq{}))
	}
	for i, ck := range cookies {
		if err := ck.Wait(nil); err != nil {
			t.Fatalf("cookie %d: %v", i, err)
		}
	}
	if errs := d.TakeErrors(); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
}
