package xclient

import (
	"testing"

	"repro/internal/xproto"
)

// TestEventQueueStaysBounded: a queue its consumer never drains keeps
// its events in order in an array a small multiple of its depth, and a
// drained queue keeps its array for the next burst.
func TestEventQueueStaysBounded(t *testing.T) {
	const events = 100000
	for _, depth := range []int{1, 100} {
		d := &Display{wake: make(chan struct{}, 1)}
		next := uint32(0)
		poll := func() {
			t.Helper()
			ev, ok, _ := d.PollEvent()
			if !ok || ev.Detail != next {
				t.Fatalf("depth %d: polled event %d (ok %v), want %d", depth, ev.Detail, ok, next)
			}
			next++
		}
		for i := 0; i < events; i++ {
			d.queueEvent(xproto.Event{Detail: uint32(i)})
			if i >= depth {
				poll()
			}
		}
		if c := cap(d.evQueue); c > 4*depth {
			t.Fatalf("depth %d: the array grew to %d events", depth, c)
		}
		for next < events {
			poll()
		}
		if _, ok, _ := d.PollEvent(); ok || len(d.evQueue) != 0 || cap(d.evQueue) == 0 {
			t.Fatalf("depth %d: drained queue has %d events in an array of %d (extra event %v)",
				depth, len(d.evQueue), cap(d.evQueue), ok)
		}
	}
}
