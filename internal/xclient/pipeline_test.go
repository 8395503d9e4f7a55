package xclient_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// TestPipelinedCookies checks the basic cookie contract: many requests
// issued before any Wait, every cookie resolving to its own reply.
func TestPipelinedCookies(t *testing.T) {
	_, d := newPair(t)
	const n = 32
	cookies := make([]xclient.AtomCookie, n)
	names := make([]string, n)
	for i := range cookies {
		names[i] = fmt.Sprintf("PIPELINED_ATOM_%d", i)
		cookies[i] = d.InternAtomAsync(names[i])
	}
	atoms := make([]xproto.Atom, n)
	for i := range cookies {
		a, err := cookies[i].Wait()
		if err != nil {
			t.Fatalf("cookie %d: %v", i, err)
		}
		atoms[i] = a
	}
	// Each name resolves to the same atom on a serial re-query, i.e. no
	// reply was cross-wired to the wrong cookie.
	for i, name := range names {
		a, err := d.InternAtom(name)
		if err != nil {
			t.Fatal(err)
		}
		if a != atoms[i] {
			t.Fatalf("atom %q: pipelined %d, serial %d", name, atoms[i], a)
		}
	}
}

// TestPipelineStress mixes pipelined round trips, one-way requests and
// event consumption across goroutines; run under -race via make check.
// Every cookie must resolve to the reply for its own request.
func TestPipelineStress(t *testing.T) {
	_, d := newPair(t)

	// Serial reference: the atom each name maps to.
	const names = 25
	ref := make(map[string]xproto.Atom, names)
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("STRESS_ATOM_%d", i)
		a, err := d.InternAtom(name)
		if err != nil {
			t.Fatal(err)
		}
		ref[name] = a
	}

	// One goroutine generates events by mapping/unmapping a window and
	// another drains them, so reply routing is exercised while events
	// interleave on the same wire.
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-d.Wake():
				for {
					if _, ok, _ := d.PollEvent(); !ok {
						break
					}
				}
			}
		}
	}()

	const workers = 8
	const opsPerWorker = 100
	seqCh := make(chan uint64, workers*opsPerWorker)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			win := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{
				EventMask: xproto.StructureNotifyMask,
			})
			for op := 0; op < opsPerWorker; op++ {
				name := fmt.Sprintf("STRESS_ATOM_%d", (w*7+op)%names)
				ck := d.InternAtomAsync(name)
				switch op % 4 {
				case 0:
					d.Bell() // one-way riding the same buffer
				case 1:
					d.MapWindow(win)
				case 2:
					d.UnmapWindow(win)
				}
				a, err := ck.Wait()
				if err != nil {
					errCh <- fmt.Errorf("worker %d op %d: %v", w, op, err)
					return
				}
				if a != ref[name] {
					errCh <- fmt.Errorf("worker %d op %d: atom %q = %d, want %d (cross-wired reply)",
						w, op, name, a, ref[name])
					return
				}
				seqCh <- ck.Seq()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	drainWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	close(seqCh)
	seen := make(map[uint64]bool)
	for s := range seqCh {
		if seen[s] {
			t.Fatalf("sequence %d assigned to two cookies", s)
		}
		seen[s] = true
	}
}

// TestTeardownFailsOutstandingCookies checks that closing the display
// resolves every in-flight cookie with an error promptly, rather than
// leaving waiters hung.
func TestTeardownFailsOutstandingCookies(t *testing.T) {
	srv := xserver.New(400, 300)
	t.Cleanup(srv.Close)
	// Enough simulated latency that the replies cannot arrive before the
	// close lands.
	srv.SetLatency(200 * time.Millisecond)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	cookies := make([]xclient.AtomCookie, n)
	for i := range cookies {
		cookies[i] = d.InternAtomAsync(fmt.Sprintf("TEARDOWN_%d", i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	done := make(chan struct{})
	var failures int
	go func() {
		defer close(done)
		for i := range cookies {
			if _, err := cookies[i].Wait(); err != nil {
				failures++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("outstanding cookies did not resolve after Close")
	}
	// Replies were delayed past the close, so at least most of the
	// cookies must have failed; none may succeed with a bogus payload.
	if failures == 0 {
		t.Fatal("expected outstanding cookies to fail after Close")
	}
}

// TestLateCookieAfterConnectionLoss checks that a cookie registered
// after the read loop has exited fails immediately instead of hanging.
func TestLateCookieAfterConnectionLoss(t *testing.T) {
	srv := xserver.New(400, 300)
	t.Cleanup(srv.Close)
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	d.ErrorHandler = func(msg string) {} // silence the async error log
	srv.Close()
	waitLost(t, d)
	ck := d.InternAtomAsync("TOO_LATE")
	done := make(chan error, 1)
	go func() {
		_, err := ck.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cookie issued after connection loss succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cookie issued after connection loss hung")
	}
}
