package xtrace_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/xtrace"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTraceGolden scripts a deterministic request/reply/event sequence
// through a traced connection and compares the decoded trace against a
// golden file. Each step ends in a round trip, so the wire order — and
// therefore the trace — is fully determined. The tracer takes the
// frames above the v2 codec, so a v2 connection traces the same lines,
// renumbered, after one line for its upgrade handshake.
func TestTraceGolden(t *testing.T) {
	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(goldenScript(t, xclient.WireV1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	t.Run("v1", func(t *testing.T) {
		if got := goldenScript(t, xclient.WireV1); got != string(want) {
			t.Fatalf("trace mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	})
	t.Run("v2", func(t *testing.T) {
		lines := []string{"0001 -> UpgradeWire {Version:2}"}
		for i, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
			lines = append(lines, fmt.Sprintf("%04d%s", i+2, line[len("0000"):]))
		}
		v2 := strings.Join(lines, "\n") + "\n"
		if got := goldenScript(t, xclient.WireV2); got != v2 {
			t.Fatalf("trace mismatch\n--- got ---\n%s--- want ---\n%s", got, v2)
		}
	})
}

// goldenScript runs the golden file's script over a connection that
// negotiates wire, and returns its trace.
func goldenScript(t *testing.T, wire xclient.WireMode) string {
	t.Helper()
	srv := xserver.New(200, 150)
	defer srv.Close()
	tr := xtrace.New(64)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Wire: wire, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if want := int(wire) + 1; d.WireVersion() != want {
		t.Fatalf("negotiated wire v%d, want v%d", d.WireVersion(), want)
	}

	// One async request with an event consequence, then a round trip.
	// The MapNotify event is emitted by the server while handling
	// MapWindow, so it precedes the Ping reply on the wire.
	w := d.CreateWindow(d.Root, 10, 20, 30, 40, 0, xclient.WindowAttributes{
		EventMask: xproto.StructureNotifyMask,
	})
	d.MapWindow(w)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// A request with a reply of its own.
	if _, err := d.InternAtom("XTRACE_TEST"); err != nil {
		t.Fatal(err)
	}
	// A protocol error: QueryTree on a bogus window.
	if _, err := d.QueryTree(xproto.ID(999)); err == nil {
		t.Fatal("expected x error for bogus window")
	}
	return strings.Join(tr.Dump(0), "\n") + "\n"
}

// TestTraceCoverageAndReset spot-checks the line kinds the golden file
// relies on, that the attach handshake a remote display opens with is
// traced without a number, and that Reset clears the ring but keeps
// reply matching coherent.
func TestTraceCoverageAndReset(t *testing.T) {
	srv := xserver.New(100, 100)
	defer srv.Close()
	tr := xtrace.New(8)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Attach: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// The server numbers no handshake frame, so the first request after
	// the attach is #1 and its reply is matched to it.
	if _, err := d.InternAtom("FIRST"); err != nil {
		t.Fatal(err)
	}
	dump := strings.Join(tr.Dump(0), "\n")
	for _, want := range []string{"-> req #1 InternAtom ", "<- rep #1 InternAtom "} {
		if !strings.Contains(dump, want) {
			t.Fatalf("trace after an attach lacks %q:\n%s", want, dump)
		}
	}

	w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{
		EventMask: xproto.StructureNotifyMask,
	})
	d.MapWindow(w)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	var haveReq, haveRep, haveEvt bool
	for _, e := range tr.Last(0) {
		switch {
		case strings.HasPrefix(e.Val, "-> req "):
			haveReq = true
		case strings.HasPrefix(e.Val, "<- rep "):
			haveRep = true
		case strings.HasPrefix(e.Val, "<- evt "):
			haveEvt = true
		}
	}
	if !haveReq || !haveRep || !haveEvt {
		t.Fatalf("trace missing kinds: req=%v rep=%v evt=%v\n%s",
			haveReq, haveRep, haveEvt, strings.Join(tr.Dump(0), "\n"))
	}

	tr.Reset()
	if tr.Total() != 0 || len(tr.Last(0)) != 0 {
		t.Fatal("Reset left lines behind")
	}
	// Reply matching still works across a Reset: a post-Reset round
	// trip is decoded with its opcode name.
	if _, err := d.InternAtom("AFTER_RESET"); err != nil {
		t.Fatal(err)
	}
	dump = strings.Join(tr.Dump(0), "\n")
	if !strings.Contains(dump, "InternAtom") || !strings.Contains(dump, "<- rep ") {
		t.Fatalf("post-reset trace = %s", dump)
	}
}

// TestTraceRingBounded: with a tiny ring, only the most recent lines
// survive and sequence numbers keep counting.
func TestTraceRingBounded(t *testing.T) {
	srv := xserver.New(100, 100)
	defer srv.Close()
	tr := xtrace.New(4)
	d, err := xclient.OpenWith(srv.ConnectPipe(), xclient.Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 20; i++ {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	lines := tr.Last(0)
	if len(lines) != 4 {
		t.Fatalf("retained %d lines, want 4", len(lines))
	}
	if tr.Total() < 20 {
		t.Fatalf("total = %d, want ≥ 20", tr.Total())
	}
	if lines[3].Seq != tr.Total() {
		t.Fatalf("newest seq %d != total %d", lines[3].Seq, tr.Total())
	}
}
