package xclient_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// TestSyncQueuesRoundEvents pins Update's contract at the display. The
// read loop is sequential, so it queues every event that precedes a
// reply before it resolves that reply's cookie: right after Sync, a
// poll yields every event the round's requests raised, without waiting.
func TestSyncQueuesRoundEvents(t *testing.T) {
	_, d := newPair(t)
	w := d.CreateWindow(d.Root, 0, 0, 20, 20, 0, xclient.WindowAttributes{
		EventMask: xproto.StructureNotifyMask | xproto.ExposureMask,
	})
	want := []int{xproto.MapNotify, xproto.Expose, xproto.UnmapNotify}
	for round := 0; round < 1000; round++ {
		d.MapWindow(w)
		d.UnmapWindow(w)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		for i, typ := range want {
			ev, ok, lost := d.PollEvent()
			if !ok {
				t.Fatalf("round %d: event %d (%s) not queued when Sync returned (lost %v)",
					round, i, xproto.EventTypeName(typ), lost)
			}
			if int(ev.Type) != typ || ev.Window != w {
				t.Fatalf("round %d: event %d is %s on window %d, want %s on %d",
					round, i, xproto.EventTypeName(int(ev.Type)), ev.Window, xproto.EventTypeName(typ), w)
			}
		}
		if ev, ok, _ := d.PollEvent(); ok {
			t.Fatalf("round %d: unexpected %s", round, xproto.EventTypeName(int(ev.Type)))
		}
	}
}

// TestWakeOnConnectionLoss: a goroutine blocked on the wake channel
// wakes when the server closes, and its poll then reports the loss.
func TestWakeOnConnectionLoss(t *testing.T) {
	srv := xserver.New(400, 300)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	lost := make(chan bool, 1)
	go func() {
		<-d.Wake()
		_, ok, gone := d.PollEvent()
		lost <- !ok && gone
	}()
	time.Sleep(20 * time.Millisecond) // the goroutine blocks first, most likely; the test holds either way
	srv.Close()
	select {
	case ok := <-lost:
		if !ok {
			t.Fatal("the poll after the wake did not report the lost connection")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a goroutine blocked on Wake never woke when the server closed")
	}
}

// TestOpenGoroutines: a display on an in-process server costs three
// goroutines: the server's request loop and writer, and the client's
// read loop.
func TestOpenGoroutines(t *testing.T) {
	srv := xserver.New(100, 100)
	defer srv.Close()
	before := settledGoroutines()
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := settledGoroutines() - before; got != 3 {
		t.Fatalf("Open added %d goroutines, want 3", got)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 50 ms, so goroutines of earlier tests that are still exiting do
// not count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}
