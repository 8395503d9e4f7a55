// Wire protocol v2 benchmarks (docs/pipelining.md, "Wire protocol
// v2"): bytes on the wire and end-to-end latency for a
// PolyFillRectangle-heavy workload, v1 framing against the negotiated
// v2 codec, at simulated WAN round-trip times. The gated emitter writes
// BENCH_wire.json and doubles as the acceptance check for the codec's
// two headline numbers: ≥ 5× fewer bytes on the wire, and ≥ 2× faster
// per-request completion at 10 ms RTT.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xserver"
)

// TestEmitWireBench measures the v1-vs-v2 wire footprint and round-trip
// completion time at 0/1/10 ms simulated RTT and writes BENCH_wire.json.
// make check runs it (OBS_BENCH=1) as the acceptance gate.
func TestEmitWireBench(t *testing.T) {
	requireObsBench(t, "BENCH_wire.json")

	const fills = 3000

	// open builds a fresh server+display pair speaking the given wire
	// mode, with the per-segment latency model charging rtt per wire
	// read — the simulated network round trip.
	open := func(mode xclient.WireMode, rtt time.Duration) (*xserver.Server, *xclient.Display) {
		srv := xserver.New(640, 480)
		srv.SetLatencyModel(xserver.LatencyPerSegment)
		srv.SetLatency(rtt)
		d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: mode})
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		return srv, d
	}

	// runStorm drives the rectangle storm: fills cycling through varying
	// geometries (repeated frames that flate's window matches), closed by
	// one Sync so every byte has crossed the wire on return.
	runStorm := func(t *testing.T, d *xclient.Display) {
		t.Helper()
		w := d.CreateWindow(d.Root, 0, 0, 640, 480, 0, xclient.WindowAttributes{Background: 0x101010})
		d.MapWindow(w)
		gc := d.CreateGC(xclient.GCValues{Foreground: 0x40C080})
		for i := 0; i < fills; i++ {
			d.FillRectangle(w, gc, i%600, (i*13)%440, 16, 12)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// --- Bytes on the wire: identical storm, v1 vs v2. ----------------
	wireBytes := func(mode xclient.WireMode) (raw, wire uint64) {
		srv, d := open(mode, 0)
		defer srv.Close()
		defer d.Close()
		runStorm(t, d)
		m := d.Metrics()
		return m.Counter("wire.bytes.raw").Value(), m.Counter("wire.bytes.wire").Value()
	}
	v1Raw, v1Wire := wireBytes(xclient.WireV1)
	v2Raw, v2Wire := wireBytes(xclient.WireV2)
	if v1Raw != v1Wire {
		t.Fatalf("v1 raw (%d) != v1 wire (%d): v1 must be a passthrough", v1Raw, v1Wire)
	}
	bytesRatio := float64(v1Wire) / float64(v2Wire)
	if bytesRatio < 5 {
		t.Fatalf("v2 wire bytes %d vs v1 %d: %.1fx reduction, want ≥ 5x", v2Wire, v1Wire, bytesRatio)
	}

	// --- Completion time at 0/1/10 ms simulated RTT. ------------------
	// One warmed connection per (mode, rtt): the v2 flush controller
	// needs round-trip samples before its threshold adapts, so both
	// modes get the same ping warmup, then the fastest of reps storms
	// is recorded.
	const reps = 3
	measure := func(mode xclient.WireMode, rtt time.Duration) time.Duration {
		srv, d := open(mode, rtt)
		defer srv.Close()
		defer d.Close()
		for i := 0; i < 16; i++ {
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		return minDuration(reps, func() time.Duration {
			start := time.Now()
			runStorm(t, d)
			return time.Since(start)
		})
	}
	rtts := []time.Duration{0, time.Millisecond, 10 * time.Millisecond}
	times := make(map[string]int64)
	var v1at10, v2at10 time.Duration
	for _, rtt := range rtts {
		v1t := measure(xclient.WireV1, rtt)
		v2t := measure(xclient.WireV2, rtt)
		times[fmt.Sprintf("v1_rtt%s", rtt)] = v1t.Nanoseconds()
		times[fmt.Sprintf("v2_rtt%s", rtt)] = v2t.Nanoseconds()
		if rtt == 10*time.Millisecond {
			v1at10, v2at10 = v1t, v2t
		}
	}

	// Acceptance: at 10 ms RTT the adaptive batcher + codec must finish
	// the same storm at least 2× faster than fixed-threshold v1.
	if v2at10*2 > v1at10 {
		t.Fatalf("storm at 10ms RTT: v2 %v vs v1 %v, want ≥ 2x win", v2at10, v1at10)
	}

	out := struct {
		Fills      int              `json:"fills_per_storm"`
		V1RawBytes uint64           `json:"v1_bytes_raw"`
		V1Wire     uint64           `json:"v1_bytes_wire"`
		V2RawBytes uint64           `json:"v2_bytes_raw"`
		V2Wire     uint64           `json:"v2_bytes_wire"`
		BytesRatio float64          `json:"bytes_reduction_x"`
		StormNs    map[string]int64 `json:"storm_completion_ns"`
	}{
		Fills:      fills,
		V1RawBytes: v1Raw,
		V1Wire:     v1Wire,
		V2RawBytes: v2Raw,
		V2Wire:     v2Wire,
		BytesRatio: bytesRatio,
		StormNs:    times,
	}
	writeBenchJSON(t, "BENCH_wire.json", out)
	t.Logf("wrote BENCH_wire.json: %.1fx fewer bytes (%d -> %d), 10ms storm %v -> %v (%.1fx)",
		bytesRatio, v1Wire, v2Wire, v1at10, v2at10, float64(v1at10)/float64(v2at10))
}
