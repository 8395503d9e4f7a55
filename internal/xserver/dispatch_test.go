package xserver

import (
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/xproto"
)

// rawClient connects to s without a Display, reads the setup block and
// returns the connection.
func rawClient(t *testing.T, s *Server) net.Conn {
	t.Helper()
	nc := s.ConnectPipe()
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if kind, _, err := xproto.ReadServerFrame(nc, nil); err != nil || kind != xproto.KindReply {
		t.Fatalf("setup block: kind %d, err %v", kind, err)
	}
	return nc
}

// readUntil reads nc's frames until the reply or error to request last
// and calls onError for each error on the way, with its sequence number
// and message.
func readUntil(t *testing.T, nc net.Conn, last uint64, onError func(seq uint64, msg string)) {
	t.Helper()
	for {
		kind, payload, err := xproto.ReadServerFrame(nc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kind != xproto.KindReply && kind != xproto.KindError {
			continue
		}
		r := xproto.NewReader(payload)
		seq := r.U64()
		if kind == xproto.KindError {
			onError(seq, r.String())
		}
		if seq == last {
			return
		}
	}
}

// TestEveryRequestIsHandled sends an empty request for every row of
// the request table that reaches dispatch and requires the server to
// handle each. An error about a request's fields is fine; an
// "unhandled request" error means that handle has no arm for the row.
func TestEveryRequestIsHandled(t *testing.T) {
	s := New(100, 100)
	defer s.Close()
	nc := rawClient(t, s)

	var batch xproto.Writer
	var ops []uint16 // ops[seq-1] is request seq's opcode
	for op := range 1 << 16 {
		rt, ok := xproto.LookupRequest(uint16(op))
		if !ok || rt.Handshake {
			continue
		}
		batch.RequestFrame(rt.New())
		ops = append(ops, uint16(op))
	}
	go nc.Write(batch.Bytes())
	readUntil(t, nc, uint64(len(ops)), func(seq uint64, msg string) {
		if strings.Contains(msg, "unhandled request") {
			t.Errorf("%s: %s", xproto.OpName(ops[seq-1]), msg)
		}
	})
}

// TestUnknownOpcodesAddNoMetricNames: a request whose opcode has no row
// in the request table is counted in "requests" and answered with an
// error, but it gets no "requests.<OpName>" counter, so a client cannot
// add names to the registry.
func TestUnknownOpcodesAddNoMetricNames(t *testing.T) {
	s := New(100, 100)
	defer s.Close()
	nc := rawClient(t, s)

	var batch xproto.Writer
	for _, op := range []uint16{99, 60000} {
		batch.PutU16(op)
		batch.PutU32(0) // an empty payload
	}
	batch.RequestFrame(&xproto.PingReq{})
	go nc.Write(batch.Bytes())
	var errs []string
	readUntil(t, nc, 3, func(seq uint64, msg string) { errs = append(errs, msg) })

	if want := []string{"bad request opcode 99", "bad request opcode 60000"}; !slices.Equal(errs, want) {
		t.Errorf("errors %q, want %q", errs, want)
	}
	if n := s.Metrics().Counter("requests").Value(); n != 3 {
		t.Errorf("requests = %d, want 3", n)
	}
	var names []string
	for name := range s.Metrics().Counters() {
		if strings.HasPrefix(name, "requests.") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	if want := []string{"requests.Ping"}; !slices.Equal(names, want) {
		t.Errorf("per-opcode counters %q, want %q", names, want)
	}
}
