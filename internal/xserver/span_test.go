package xserver

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// TestDispatchSpanCarriesLockWait: a sampled request that waited for
// the display lock carries the wait in its server.dispatch span as
// lockwait.tree, and one that found the lock free carries no lock-wait
// arg at all.
func TestDispatchSpanCarriesLockWait(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	tr := trace.New(64, 1)
	s.SetTracer(tr)
	d, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetTracer(tr)

	// Hold the lock from before the Ping arrives until 20 ms after the
	// server has counted it, so its dispatch waits at least that long.
	requests := s.Metrics().Counter("requests")
	before := requests.Value()
	s.mu.Lock()
	ping := d.SendWithReply(&xproto.PingReq{})
	d.Flush()
	for requests.Value() == before {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	s.mu.Unlock()
	if err := ping.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.SendWithReply(&xproto.PingReq{}).Wait(nil); err != nil {
		t.Fatal(err)
	}

	var pings []trace.Span
	for _, sp := range tr.Spans() {
		if sp.Name == "server.dispatch" && sp.Op == xproto.OpName(xproto.OpPing) {
			pings = append(pings, sp)
		}
	}
	if len(pings) != 2 {
		t.Fatalf("recorded %d server.dispatch spans for Ping, want 2", len(pings))
	}
	if got := pings[0].Arg("lockwait.tree"); got < int64(10*time.Millisecond) {
		t.Errorf("contended Ping: lockwait.tree = %v, want ≥ 10ms (args %v)", time.Duration(got), pings[0].Args)
	}
	for _, a := range pings[1].Args {
		if strings.HasPrefix(a.Key, "lockwait.") {
			t.Errorf("uncontended Ping carries %s = %d, want no lock-wait arg", a.Key, a.Val)
		}
	}
}
