package tk

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xserver"
)

// mkPair builds two apps on one shared server.
func mkPair(t *testing.T, name1, name2 string) (*App, *App) {
	t.Helper()
	srv := xserver.New(800, 600)
	t.Cleanup(srv.Close)
	mk := func(name string) *App {
		d, err := xclient.Open(srv.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		app, err := NewApp(d, Config{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(app.Destroy)
		return app
	}
	return mk(name1), mk(name2)
}

// TestReentrantSend has A send to B a command that itself sends back to
// A: the pump loop in Send must keep servicing incoming commands while
// waiting for its own result, or this deadlocks.
func TestReentrantSend(t *testing.T) {
	a, b := mkPair(t, "a", "b")
	a.MustEval(`proc fromB {} {return "A answered"}`)
	b.MustEval(`proc relay {} {
		set inner [send a fromB]
		return "B got: $inner"
	}`)
	stop := b.StartServing()
	defer stop()
	got, err := a.Send("b", "relay")
	if err != nil {
		t.Fatalf("reentrant send: %v", err)
	}
	if got != "B got: A answered" {
		t.Fatalf("reentrant send result = %q", got)
	}
}

// TestSendWaitRunsIdleHandlers: an application waiting in send runs its
// own idle handlers. B's command has A queue an idle handler, which is
// what lets the command finish: it sends B the variable B waits for.
// B's guard timer ends that wait if the handler never runs.
func TestSendWaitRunsIdleHandlers(t *testing.T) {
	a, b := mkPair(t, "a", "b")
	b.MustEval(`set guard [after 2000 {set go "guard timer"}]`)
	stop := b.StartServing()
	defer stop()
	got, err := a.Send("b", `send a {after idle {send b {set go 1}}}; tkwait variable go; after cancel $guard; set go`)
	if err != nil || got != "1" {
		t.Fatalf("send = %q, %v; want 1, set by the sender's idle handler", got, err)
	}
}

// TestSendResultTypes checks multi-word and special-character results
// survive the property encoding.
func TestSendResultTypes(t *testing.T) {
	a, b := mkPair(t, "a", "b")
	b.MustEval(`proc weird {} {return "braces {inside} and \[brackets\] and \$dollar"}`)
	stop := b.StartServing()
	defer stop()
	got, err := a.Send("b", "weird")
	if err != nil {
		t.Fatal(err)
	}
	if got != `braces {inside} and [brackets] and $dollar` {
		t.Fatalf("result = %q", got)
	}
}

// TestSendToDeadApp: after an application is destroyed, sends to it fail
// with an unknown-interpreter error (the registry is cleaned up).
func TestSendToDeadApp(t *testing.T) {
	a, b := mkPair(t, "a", "b")
	b.Destroy()
	a.Update()
	if _, err := a.Send("b", "set x"); err == nil ||
		!strings.Contains(err.Error(), "no registered interpreter") {
		t.Fatalf("send to dead app: %v", err)
	}
}

// TestSendErrorCarriesMessage: a Tcl error in the target comes back as
// the sender's error with the target's message.
func TestSendErrorCarriesMessage(t *testing.T) {
	a, b := mkPair(t, "a", "b")
	b.MustEval(`proc boom {} {error "exploded in target"}`)
	stop := b.StartServing()
	defer stop()
	_, err := a.Send("b", "boom")
	if err == nil || err.Error() != "exploded in target" {
		t.Fatalf("error = %v", err)
	}
}

// TestConcurrentSendsInterleaved: several sends in sequence from both
// directions, with each side serving between calls.
func TestSendBothDirections(t *testing.T) {
	a, b := mkPair(t, "a", "b")
	a.MustEval(`set who A`)
	b.MustEval(`set who B`)

	stopB := b.StartServing()
	got1, err1 := a.Send("b", "set who")
	stopB()
	stopA := a.StartServing()
	got2, err2 := b.Send("a", "set who")
	stopA()
	if err1 != nil || got1 != "B" {
		t.Fatalf("a→b: %q %v", got1, err1)
	}
	if err2 != nil || got2 != "A" {
		t.Fatalf("b→a: %q %v", got2, err2)
	}
}

// TestServerDisconnectCleansRegistry: when a client's connection drops
// without a clean Destroy (a crash), the server destroys its windows; the
// registry entry goes stale but a later send fails rather than hanging
// forever (timeout or missing comm window).
func TestCrashLeavesOthersWorking(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	d1, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	app1, err := NewApp(d1, Config{Name: "stable"})
	if err != nil {
		t.Fatal(err)
	}
	defer app1.Destroy()

	d2, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	app2, err := NewApp(d2, Config{Name: "crasher"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app2.CreateWindow(".w", "Frame"); err != nil {
		t.Fatal(err)
	}
	app2.Update()

	// Simulate a crash: close the socket without unregistering.
	d2.Close()

	// The survivor keeps working.
	if _, err := app1.CreateWindow(".b", "Frame"); err != nil {
		t.Fatal(err)
	}
	app1.Update()
	if !app1.WindowExists(".b") {
		t.Fatal("survivor lost its windows")
	}
	if _, err := app1.Interp.Eval(`winfo interps`); err != nil {
		t.Fatalf("winfo interps after crash: %v", err)
	}
}

// TestSendToVanishedPeerPrunesRegistry: a peer that crashed (connection
// dropped, no clean unregister) leaves a stale registry entry. A send to
// it must come back within the deadline with a clear error, and the
// stale entry must be pruned so winfo interps stops listing it.
func TestSendToVanishedPeerPrunesRegistry(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	mk := func(name string) *App {
		d, err := xclient.Open(srv.ConnectPipe())
		if err != nil {
			t.Fatal(err)
		}
		app, err := NewApp(d, Config{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	a := mk("alpha")
	defer a.Destroy()
	ghost := mk("ghost")

	// Crash the peer: the server destroys its windows (including the
	// communication window) but the registry entry survives.
	ghost.Disp.Close()

	a.SendTimeout = 300 * time.Millisecond
	begin := time.Now()
	_, err := a.Send("ghost", "set x 1")
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("send to vanished peer should fail")
	}
	if !strings.Contains(err.Error(), "has exited") {
		t.Fatalf("want a gone-peer error, got: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("send took %v; deadline was 300ms", elapsed)
	}
	// The stale entry is pruned: winfo interps no longer lists it, and
	// the next send fails fast with unknown-interpreter.
	for _, name := range a.Interps() {
		if name == "ghost" {
			t.Fatal("vanished peer still in registry after pruning")
		}
	}
	if _, err := a.Send("ghost", "set x"); err == nil ||
		!strings.Contains(err.Error(), "no registered interpreter") {
		t.Fatalf("second send: %v", err)
	}
}

// TestSendToUnresponsivePeerTimesOut: a peer that is alive (connection
// up, comm window present) but never serving its event loop produces a
// plain timeout error and is NOT pruned — it may just be busy.
func TestSendToUnresponsivePeerTimesOut(t *testing.T) {
	a, b := mkPair(t, "alpha", "beta")
	_ = b // registered but never StartServing: alive yet unresponsive.

	a.SendTimeout = 300 * time.Millisecond
	begin := time.Now()
	_, err := a.Send("beta", "set x 1")
	if err == nil || !strings.Contains(err.Error(), "did not respond within") {
		t.Fatalf("want timeout error, got: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 3*time.Second {
		t.Fatalf("send took %v; deadline was 300ms", elapsed)
	}
	found := false
	for _, name := range a.Interps() {
		if name == "beta" {
			found = true
		}
	}
	if !found {
		t.Fatal("alive-but-busy peer must stay registered")
	}
}

// TestSendNewlines: a script, a result or an error message may hold a
// newline, a brace or a NUL byte and still cross both ways: each send
// property is one Tcl list of records, not a line per record.
func TestSendNewlines(t *testing.T) {
	a, b := mkPair(t, "a", "b")
	a.SendTimeout = 500 * time.Millisecond
	stop := b.StartServing()
	defer stop()
	for _, tc := range []struct{ script, want, wantErr string }{
		{"set x 1\nset y 2", "2", ""},
		{"set w {a\nb}", "a\nb", ""},
		{`set z p\nq`, "p\nq", ""},
		{`error "bad\nthing"`, "", "bad\nthing"},
		{`set r "x\{y\000z"`, "x{y\x00z", ""},
	} {
		got, err := a.Send("b", tc.script)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("send %q: error %v, want %q", tc.script, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("send %q = %q, %v; want %q", tc.script, got, err, tc.want)
		}
	}
	if got := b.MustEval(`set z`); got != "p\nq" {
		t.Errorf("target's z = %q, want %q", got, "p\nq")
	}
}

// FuzzSendRecords: the send properties' record reader never panics,
// whatever bytes a property holds, and the records the writer wrote
// read back field for field.
func FuzzSendRecords(f *testing.F) {
	for _, seed := range []struct{ prop, a, b, c string }{
		{"", "1", "2097154", "set x 1\nset y 2"},
		{"1 2097154 {set w {a\nb}} ", "2", "0", "set z p\\nq"},
		{"1 1 {bad\nthing} ", "3", "0", "x{y\x00z"},
		{"1 2 ", "", " ", "\\"},
		{"{unbalanced ", "{", "}", "\"quoted\""},
	} {
		f.Add([]byte(seed.prop), seed.a, seed.b, seed.c)
	}
	f.Fuzz(func(t *testing.T, prop []byte, a, b, c string) {
		readRecords(prop, 2)
		readRecords(prop, 3)
		data := appendRecord(appendRecord(nil, a, b, c), c, b, a)
		if got, want := readRecords(data, 3), [][]string{{a, b, c}, {c, b, a}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("records %q read back as %q, want %q", data, got, want)
		}
		data = appendRecord(appendRecord(nil, a, b), b, c)
		if got, want := readRecords(data, 2), [][]string{{a, b}, {b, c}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("records %q read back as %q, want %q", data, got, want)
		}
	})
}
