// Chaos harness (`make chaos`): drives a real widget workload through a
// matrix of seeded fault scenarios injected under the wire by
// internal/fault, and asserts graceful degradation end to end — zero
// hangs (a watchdog bounds every scenario), zero panics (the run is
// race-gated), every injected fault either recovered from or surfaced
// as a clean Go error / tkerror report, and the fault.* counters
// accounting for 100% of the injected faults. docs/fault-injection.md
// describes the scenarios and how to add more.
package repro_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/tk"
	"repro/internal/widget"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// chaosScenarios is the bounded seed set the harness (and `make chaos`)
// runs. Each entry exercises one fault kind in isolation plus a combo;
// the baseline proves the workload itself is clean.
var chaosScenarios = []fault.Scenario{
	{Name: "baseline", Seed: 1},
	{Name: "jitter", Seed: 2, Jitter: 500 * time.Microsecond, JitterProb: 0.5},
	{Name: "short-writes", Seed: 3, ShortWriteProb: 0.7},
	{Name: "short-reads", Seed: 4, ShortReadProb: 0.7},
	{Name: "corrupt-write", Seed: 5, CorruptWriteProb: 0.05},
	{Name: "corrupt-read", Seed: 6, CorruptReadProb: 0.05},
	{Name: "kill-after-requests", Seed: 7, KillAfterRequests: 60},
	{Name: "kill-after-bytes", Seed: 8, KillAfterBytes: 2048},
	{Name: "stall", Seed: 9, StallEvery: 5, StallDur: 20 * time.Millisecond},
	{Name: "combo", Seed: 10, Jitter: 200 * time.Microsecond, JitterProb: 0.3,
		ShortWriteProb: 0.3, ShortReadProb: 0.3, CorruptReadProb: 0.01,
		StallEvery: 20, StallDur: 5 * time.Millisecond},
}

// chaosOutcome is what one scenario run reports back to the assertions.
type chaosOutcome struct {
	surfaced  []string // clean Go errors collected along the way
	tkerrors  int      // errors routed through the tkerror convention
	recovered bool     // the final round trip on the faulty conn succeeded
}

// TestChaos runs the widget workload under every scenario. Requires
// -race (the Makefile target supplies it) for the no-panics/no-races
// guarantee to mean something.
func TestChaos(t *testing.T) {
	for _, sc := range chaosScenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			runChaosScenario(t, sc)
		})
	}
}

func runChaosScenario(t *testing.T, sc fault.Scenario) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	srv.SetLatency(100 * time.Microsecond)
	srv.SetWriteTimeout(time.Second)

	// The faulty connection: the chaos layer sits under xclient, below
	// the v2 codec.
	fc := fault.Wrap(srv.ConnectPipe(), sc, nil)

	outc := make(chan chaosOutcome, 1)
	go func() {
		outc <- chaosWorkload(t, srv, fc, sc)
	}()

	// Watchdog: no scenario may hang. The workload is seconds of work;
	// 60s means something above the fault layer lost its deadline.
	var out chaosOutcome
	select {
	case out = <-outc:
	case <-time.After(60 * time.Second):
		srv.Close()
		t.Fatalf("scenario %q hung: workload did not finish within 60s", sc.Name)
	}

	// Accounting: the per-kind counters explain 100% of the injections.
	var sum uint64
	for _, name := range fault.CounterNames {
		sum += fc.Metrics().Counter(name).Value()
	}
	if sum != fc.Total() {
		t.Fatalf("fault counters sum to %d but Total() = %d", sum, fc.Total())
	}

	injected := fc.Total()
	surfaced := len(out.surfaced) + out.tkerrors
	t.Logf("scenario %-20s injected=%-4d surfaced=%-3d recovered=%v",
		sc.Name, injected, surfaced, out.recovered)

	if sc.Name == "baseline" {
		if injected != 0 {
			t.Fatalf("baseline injected %d faults", injected)
		}
		if surfaced != 0 {
			t.Fatalf("baseline produced errors: %v (tkerrors=%d)", out.surfaced, out.tkerrors)
		}
		if !out.recovered {
			t.Fatal("baseline should finish with a clean round trip")
		}
		return
	}
	// Graceful degradation: every injected fault was either absorbed
	// (the connection still answers a round trip) or surfaced as a
	// clean error. Silence plus a dead connection means something
	// swallowed a failure.
	if injected > 0 && !out.recovered && surfaced == 0 {
		t.Fatalf("scenario %q injected %d faults, connection is dead, and nothing surfaced",
			sc.Name, injected)
	}
}

// chaosWorkload runs the real workload on the faulty connection:
// app setup, button create/configure/destroy cycles, pipelined round
// trips, and a send to a healthy peer app on the same display. Every
// failure is collected, never fatal — the scenario assertions decide
// what failure pattern is acceptable.
func chaosWorkload(t *testing.T, srv *xserver.Server, fc *fault.Conn, sc fault.Scenario) chaosOutcome {
	var out chaosOutcome
	collect := func(stage string, err error) {
		if err != nil {
			out.surfaced = append(out.surfaced, fmt.Sprintf("%s: %v", stage, err))
		}
	}

	d, err := xclient.Open(fc)
	if err != nil {
		collect("open", err)
		return out
	}
	defer d.Close()
	d.SetRoundTripTimeout(2 * time.Second)

	app, err := tk.NewApp(d, tk.Config{Name: "chaos"})
	if err != nil {
		collect("newapp", err)
		return out
	}
	widget.Register(app)
	defer app.Destroy()
	app.SendTimeout = 2 * time.Second
	// Surfacing path for async display errors: the tkerror convention.
	if _, err := app.Eval(`set ::chaoserrs 0; proc tkerror {msg} {incr ::chaoserrs}`); err != nil {
		collect("tkerror-setup", err)
	}

	// A healthy peer on its own clean connection: the send target, and
	// the proof that one client's chaos stays its own.
	peerD, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		collect("peer-open", err)
		return out
	}
	defer peerD.Close()
	peer, err := tk.NewApp(peerD, tk.Config{Name: "peer"})
	if err != nil {
		collect("peer-newapp", err)
		return out
	}
	widget.Register(peer)
	defer peer.Destroy()
	if _, err := peer.Eval(`proc answer {} {return pong}`); err != nil {
		collect("peer-proc", err)
	}
	stop := peer.StartServing()
	defer stop()

	// The widget workload: create, lay out, configure, redisplay,
	// destroy — the paper's Table II shape, under fire.
	for i := 0; i < 6; i++ {
		_, err := app.Eval(fmt.Sprintf(`button .b%d -text "Button %d"`, i, i))
		collect("create", err)
		_, err = app.Eval(fmt.Sprintf(`pack append . .b%d {top}`, i))
		collect("pack", err)
		_, err = app.Eval(fmt.Sprintf(`.b%d configure -text "Pressed %d"`, i, i))
		collect("configure", err)
		app.Update()
		_, err = app.Eval(fmt.Sprintf(`destroy .b%d`, i))
		collect("destroy", err)
	}

	// Pipelined round trips: 8 cookies in flight, then wait for all.
	cookies := make([]*xclient.Cookie, 8)
	for i := range cookies {
		cookies[i] = d.SendWithReply(&xproto.PingReq{})
	}
	collect("flush", d.Flush())
	for _, ck := range cookies {
		collect("cookie", ck.Wait(nil))
	}

	// Send: a cross-application RPC to the healthy peer.
	if res, err := app.Send("peer", "answer"); err != nil {
		collect("send", err)
	} else if res != "pong" {
		collect("send", fmt.Errorf("send result %q, want pong", res))
	}

	// Drain any tkerror-routed async errors, then take the verdict
	// round trip: can this connection still answer?
	app.Update()
	if res, err := app.Eval(`set ::chaoserrs`); err == nil {
		fmt.Sscanf(res, "%d", &out.tkerrors)
	}
	out.recovered = d.Sync() == nil
	return out
}

// ---------------------------------------------------------------------
// Wire protocol v2 under fire (docs/pipelining.md, "Wire protocol v2").
//
// The v2 codec ships compressed segments, so a single flipped bit no
// longer damages one request — it damages a whole coalesced run, and a
// decompressor fed a damaged body can produce *plausible but wrong*
// frames. These scenarios hold the failure-mode line: corruption inside
// a compressed segment and a kill mid-stream must degrade to a clean
// connection loss (every cookie fails promptly with the root cause) —
// never to a garbage frame reaching a handler, which the
// deterministic-pixel check below would catch as silent canvas
// corruption.

// chaosWireScenarios: bit flips on each direction's compressed
// segments, and a kill in the middle of the segment stream. The corruption
// probabilities are much higher than the v1 matrix's because they are
// charged per Write/Read call and the whole point of v2 is that a
// storm collapses into a handful of large writes — at v1's 0.05 the
// seeded runs inject nothing at all (the runner asserts they do).
var chaosWireScenarios = []fault.Scenario{
	{Name: "v2-bitflip-compressed-write", Seed: 21, CorruptWriteProb: 0.5},
	{Name: "v2-bitflip-compressed-read", Seed: 24, CorruptReadProb: 0.5},
	{Name: "v2-kill-mid-stream", Seed: 23, KillAfterBytes: 1024},
}

// wireChaosOutcome extends the plain outcome with the silent-corruption
// verdict: garbage is true when a fully "recovered" zero-error run
// produced pixels differing from the clean reference — meaning a
// corrupt frame was decoded and dispatched instead of rejected.
type wireChaosOutcome struct {
	surfaced  []string
	recovered bool
	upgraded  bool // the v2 negotiation completed before any fault hit
	garbage   bool
}

// TestChaosWireV2 runs the deterministic fill storm over a negotiated
// v2 connection under each scenario. Run by `make chaos` (the -run
// TestChaos prefix matches).
func TestChaosWireV2(t *testing.T) {
	for _, sc := range chaosWireScenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			runWireChaosScenario(t, sc)
		})
	}
}

func runWireChaosScenario(t *testing.T, sc fault.Scenario) {
	srv := xserver.New(320, 240)
	defer srv.Close()
	srv.SetWriteTimeout(time.Second)

	// Clean reference: the same deterministic storm on an unfaulted v2
	// connection, screenshotted. Any faulted run that claims full
	// recovery with zero errors must reproduce these bytes exactly.
	ref := func() []byte {
		d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: xclient.WireV2})
		if err != nil {
			t.Fatalf("clean reference open: %v", err)
		}
		defer d.Close()
		w := wireChaosStorm(d)
		if err := d.Sync(); err != nil {
			t.Fatalf("clean reference sync: %v", err)
		}
		shot, err := d.Screenshot(w)
		if err != nil {
			t.Fatalf("clean reference screenshot: %v", err)
		}
		return append([]byte(nil), shot.Pixels...)
	}()

	fc := fault.Wrap(srv.ConnectPipe(), sc, nil)
	outc := make(chan wireChaosOutcome, 1)
	go func() {
		outc <- wireChaosWorkload(fc, ref)
	}()

	var out wireChaosOutcome
	select {
	case out = <-outc:
	case <-time.After(60 * time.Second):
		srv.Close()
		t.Fatalf("scenario %q hung: v2 workload did not finish within 60s", sc.Name)
	}

	// Accounting: the per-kind counters explain 100% of the injections.
	var sum uint64
	for _, name := range fault.CounterNames {
		sum += fc.Metrics().Counter(name).Value()
	}
	if sum != fc.Total() {
		t.Fatalf("fault counters sum to %d but Total() = %d", sum, fc.Total())
	}
	injected := fc.Total()
	t.Logf("scenario %-28s injected=%-4d surfaced=%-3d recovered=%v upgraded=%v",
		sc.Name, injected, len(out.surfaced), out.recovered, out.upgraded)

	// The seeded runs are deterministic: each scenario must actually
	// fire, or it is testing nothing (a corruption probability tuned
	// for v1's chatty write pattern can silently undershoot v2's few
	// large writes).
	if injected == 0 {
		t.Fatalf("scenario %q injected no faults — tune the scenario for the v2 write pattern", sc.Name)
	}

	// The no-silent-corruption line: a corrupted segment must never
	// decode into a frame a handler acts on. If it had, the zero-error
	// "recovered" canvas would differ from the clean reference.
	if out.garbage {
		t.Fatalf("scenario %q: connection recovered with zero errors but the canvas "+
			"differs from the clean run — a corrupt frame reached a handler", sc.Name)
	}
	// Graceful degradation, as in the v1 matrix: injected faults are
	// either absorbed (the connection still answers) or surface as
	// clean errors. A dead connection with nothing surfaced means a
	// failure was swallowed.
	if injected > 0 && !out.recovered && len(out.surfaced) == 0 {
		t.Fatalf("scenario %q injected %d faults, connection is dead, and nothing surfaced",
			sc.Name, injected)
	}
	// The kill fires deterministically inside the segment stream (the
	// storm alone crosses KillAfterBytes): the connection must die and
	// every outstanding cookie must have failed with the root cause
	// rather than hanging (the watchdog above is the hang detector).
	if sc.KillAfterBytes > 0 {
		if out.recovered {
			t.Fatalf("scenario %q: connection survived a mid-stream kill", sc.Name)
		}
		if len(out.surfaced) == 0 {
			t.Fatalf("scenario %q: mid-stream kill surfaced no errors", sc.Name)
		}
	}
}

// wireChaosStorm paints the deterministic pattern the pixel check keys
// on: a window, one GC, and 400 fills (same opcode, varying geometry —
// repeated frames that flate collapses into few compressed segments).
func wireChaosStorm(d *xclient.Display) xproto.ID {
	w := d.CreateWindow(d.Root, 0, 0, 320, 240, 0, xclient.WindowAttributes{Background: 0x202020})
	d.MapWindow(w)
	gc := d.CreateGC(xclient.GCValues{Foreground: 0x40C080})
	for i := 0; i < 400; i++ {
		d.FillRectangle(w, gc, (i*7)%300, (i*13)%220, 12, 9)
	}
	return w
}

// wireChaosWorkload drives the storm plus pipelined pings over the
// faulted connection, then renders the verdict: recovered? and if
// fully clean, do the pixels match the reference?
func wireChaosWorkload(fc *fault.Conn, ref []byte) wireChaosOutcome {
	var out wireChaosOutcome
	collect := func(stage string, err error) {
		if err != nil {
			out.surfaced = append(out.surfaced, fmt.Sprintf("%s: %v", stage, err))
		}
	}

	d, err := xclient.OpenWith(fc, xclient.Config{Wire: xclient.WireV2})
	if err != nil {
		collect("open", err)
		return out
	}
	defer d.Close()
	d.SetRoundTripTimeout(2 * time.Second)
	out.upgraded = d.WireVersion() == 2

	w := wireChaosStorm(d)

	// Pipelined cookies across the faulty link: all must resolve —
	// with a reply or a clean error — never hang.
	cookies := make([]*xclient.Cookie, 8)
	for i := range cookies {
		cookies[i] = d.SendWithReply(&xproto.PingReq{})
	}
	collect("flush", d.Flush())
	for _, ck := range cookies {
		collect("cookie", ck.Wait(nil))
	}

	out.recovered = d.Sync() == nil
	if out.recovered && len(out.surfaced) == 0 {
		shot, err := d.Screenshot(w)
		switch {
		case err != nil:
			// The screenshot itself died on a late fault: a clean
			// surfaced error, not silent corruption.
			collect("screenshot", err)
			out.recovered = false
		case !bytes.Equal(shot.Pixels, ref):
			out.garbage = true
		}
	}
	return out
}
