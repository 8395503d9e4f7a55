package xclient_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// TestServerShutdownSurfacesCleanly: when the server dies, the display
// reports the lost connection and round trips fail rather than hanging.
func TestServerShutdownSurfacesCleanly(t *testing.T) {
	srv := xserver.New(400, 300)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// The display reports the loss once its queue is drained.
	waitLost(t, d)
	// Round trips fail promptly.
	if err := d.Sync(); err == nil {
		t.Fatal("Sync after server death should fail")
	}
}

// TestClientCloseIsIdempotent: closing twice and using a closed display
// is safe.
func TestClientCloseIsIdempotent(t *testing.T) {
	srv := xserver.New(400, 300)
	defer srv.Close()
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close()
	if !d.Closed() {
		t.Fatal("Closed() should report true")
	}
	if err := d.Sync(); err == nil {
		t.Fatal("Sync on closed display should fail")
	}
	// One-way requests on a closed display are dropped without panic.
	d.MapWindow(5)
	d.Flush()
}

// TestAsyncErrorsCollected: errors for one-way requests surface through
// TakeErrors at the next round trip.
func TestAsyncErrorsCollected(t *testing.T) {
	srv := xserver.New(400, 300)
	defer srv.Close()
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// MapWindow on a bogus ID errors asynchronously.
	d.Request(&xproto.MapWindowReq{Window: 999999})
	d.Flush()
	// A later round trip must still succeed.
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	errs := d.TakeErrors()
	if len(errs) != 1 {
		t.Fatalf("collected %d async errors, want 1: %v", len(errs), errs)
	}
	if len(d.TakeErrors()) != 0 {
		t.Fatal("TakeErrors should clear")
	}
}

// TestErrorHandlerCallback: a registered handler receives async errors
// instead of the queue.
func TestErrorHandlerCallback(t *testing.T) {
	srv := xserver.New(400, 300)
	defer srv.Close()
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := make(chan string, 1)
	d.ErrorHandler = func(msg string) { got <- msg }
	d.Request(&xproto.DestroyWindowReq{Window: 424242})
	d.Request(&xproto.MapWindowReq{Window: 424242})
	d.Flush()
	d.Sync()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("error handler never called")
	}
}

// TestAppSurvivesPeerDisconnect: one client dropping its connection does
// not disturb another client's windows on the same server.
func TestAppSurvivesPeerDisconnect(t *testing.T) {
	srv := xserver.New(400, 300)
	defer srv.Close()
	d1, _ := xclient.Open(srv.ConnectPipe())
	defer d1.Close()
	d2, _ := xclient.Open(srv.ConnectPipe())

	w1 := d1.CreateWindow(d1.Root, 0, 0, 50, 50, 0, xclient.WindowAttributes{})
	w2 := d2.CreateWindow(d2.Root, 60, 0, 50, 50, 0, xclient.WindowAttributes{})
	d1.MapWindow(w1)
	d2.MapWindow(w2)
	d1.Sync()
	d2.Sync()

	d2.Close()
	// Allow the server to notice and clean up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tree, err := d1.QueryTree(d1.Root)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Children) == 1 && tree.Children[0] == w1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer windows not cleaned up: %v", tree.Children)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The survivor still draws and reads fine.
	if _, err := d1.GetGeometry(w1); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.GetGeometry(w2); err == nil {
		t.Fatal("dead client's window should be gone")
	}
}

// fakeServer returns the client end of a pipe whose far end has already
// delivered a valid setup block; the test script drives the far end.
func fakeServer(t *testing.T) (client, server net.Conn) {
	t.Helper()
	client, server = net.Pipe()
	setup := &xproto.SetupReply{ResourceIDBase: 0x200000, Root: 1, Width: 400, Height: 300}
	var frame xproto.Writer
	frame.ServerFrame(xproto.KindReply, setup.Encode)
	go server.Write(frame.Bytes())
	return client, server
}

// TestOpenAgainstClosedServerFailsFast: the satellite bugfix — opening
// a display on a server that has already shut down returns a clear,
// prompt error rather than a generic EOF mid-setup.
func TestOpenAgainstClosedServerFailsFast(t *testing.T) {
	srv := xserver.New(400, 300)
	srv.Close()
	begin := time.Now()
	_, err := xclient.Open(srv.ConnectPipe())
	if err == nil {
		t.Fatal("Open against a closed server must fail")
	}
	if !strings.Contains(err.Error(), "during setup") ||
		!strings.Contains(err.Error(), "server not running or already shut down") {
		t.Fatalf("want a clear setup-failure error, got: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("Open took %v; should fail fast", elapsed)
	}
}

// TestRoundTripDeadline: a server that accepts the connection but never
// answers resolves Wait with ErrTimeout instead of hanging.
func TestRoundTripDeadline(t *testing.T) {
	client, server := fakeServer(t)
	defer server.Close()
	d, err := xclient.Open(client)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Swallow the ping without answering.
	go io.Copy(io.Discard, server)

	d.SetRoundTripTimeout(150 * time.Millisecond)
	begin := time.Now()
	err = d.Sync()
	if !errors.Is(err, xclient.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 3*time.Second {
		t.Fatalf("timed out after %v; deadline was 150ms", elapsed)
	}
	if d.Metrics().Counter("roundtrip.timeout").Value() != 1 {
		t.Fatalf("roundtrip.timeout counter = %d, want 1",
			d.Metrics().Counter("roundtrip.timeout").Value())
	}
}

// TestGarbageFrameKindFailsCookiesCleanly: an unreadable frame header
// is unrecoverable; outstanding cookies fail with a corruption error
// rather than blocking.
func TestGarbageFrameKindFailsCookiesCleanly(t *testing.T) {
	client, server := fakeServer(t)
	defer server.Close()
	d, err := xclient.Open(client)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	go io.Copy(io.Discard, server)

	ck := d.SendWithReply(&xproto.PingReq{})
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Deliver a frame whose kind byte is garbage.
	var frame xproto.Writer
	frame.ServerFrame(0x7f, func(w *xproto.Writer) { copy(w.AppendRaw(5), "noise") })
	if _, err := server.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	err = ck.Wait(nil)
	if err == nil || !strings.Contains(err.Error(), "protocol corruption") {
		t.Fatalf("want protocol corruption error, got: %v", err)
	}
	if d.Metrics().Counter("protocol.corrupt").Value() != 1 {
		t.Fatal("protocol.corrupt counter should be 1")
	}
	// Later round trips fail immediately with the same root cause.
	if err := d.Sync(); err == nil || !strings.Contains(err.Error(), "protocol corruption") {
		t.Fatalf("post-corruption Sync: %v", err)
	}
}

// TestMalformedEventSkippedStreamSurvives: a well-delimited but
// undecodable event frame surfaces as an async error while the
// connection keeps working.
func TestMalformedEventSkippedStreamSurvives(t *testing.T) {
	client, server := fakeServer(t)
	defer server.Close()
	d, err := xclient.Open(client)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// A 1-byte event payload cannot decode.
	var event xproto.Writer
	event.ServerFrame(xproto.KindEvent, func(w *xproto.Writer) { w.PutU8(1) })
	if _, err := server.Write(event.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Answer the subsequent ping by hand: seq 1, empty reply body.
	go func() {
		op, _, err := xproto.ReadRequestFrame(server, nil)
		if err != nil || op != xproto.OpPing {
			return
		}
		var reply xproto.Writer
		reply.ServerFrame(xproto.KindReply, func(w *xproto.Writer) { w.PutU64(1) })
		server.Write(reply.Bytes())
	}()
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync after malformed event: %v", err)
	}
	errs := d.TakeErrors()
	if len(errs) != 1 || !strings.Contains(errs[0], "malformed event") {
		t.Fatalf("async errors = %v, want one malformed-event report", errs)
	}
}
