package xserver_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xserver"
)

// TestLatencyPerSegment checks the latency model's defining property:
// a batch of pipelined requests flushed together pays the simulated IPC
// latency once, not once per request.
func TestLatencyPerSegment(t *testing.T) {
	srv := xserver.New(400, 300)
	t.Cleanup(srv.Close)
	const lat = 20 * time.Millisecond
	srv.SetLatency(lat)

	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	segments := srv.Metrics().Counter("segments")
	before := segments.Value()

	const k = 10
	start := time.Now()
	cookies := make([]xclient.AtomCookie, k)
	for i := range cookies {
		cookies[i] = d.InternAtomAsync(fmt.Sprintf("SEGMENT_ATOM_%d", i))
	}
	for i := range cookies {
		if _, err := cookies[i].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	// All k requests went out in one flush, so one segment: roughly one
	// latency charge, and nowhere near k of them.
	if elapsed < lat {
		t.Fatalf("batch completed in %v, below the %v wire latency", elapsed, lat)
	}
	if elapsed >= time.Duration(k)*lat/2 {
		t.Fatalf("batch took %v; one segment should charge ~1×%v, not one per request", elapsed, lat)
	}
	if got := segments.Value() - before; got > 3 {
		t.Fatalf("batch consumed %d wire segments, want ≤ 3", got)
	}
}
