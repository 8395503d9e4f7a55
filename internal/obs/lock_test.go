package obs

import (
	"testing"
	"time"
)

// TestTimedMutexCountsAcquisitions: every Lock is observed (count), and
// a forced contended acquisition records and returns a nonzero wait,
// where an uncontended one returns zero.
func TestTimedMutexCountsAcquisitions(t *testing.T) {
	reg := NewRegistry()
	var m TimedMutex
	m.Instrument(reg.Histogram("lockwait.test"))

	if wait := m.Lock(); wait != 0 {
		t.Fatalf("uncontended Lock returned a %dns wait, want 0", wait)
	}
	m.Unlock()

	// Contended path: a second goroutine blocks until we release.
	m.Lock()
	started := make(chan struct{})
	done := make(chan struct{})
	var contended int64
	go func() {
		close(started)
		contended = m.Lock()
		m.Unlock()
		close(done)
	}()
	<-started
	time.Sleep(5 * time.Millisecond)
	m.Unlock()
	<-done

	snap := reg.Histogram("lockwait.test").Snapshot()
	if snap.Count != 3 {
		t.Fatalf("histogram count = %d, want 3 (one per Lock)", snap.Count)
	}
	if snap.Max < int64(time.Millisecond) {
		t.Fatalf("max wait = %dns, want ≥ 1ms from the contended acquisition", snap.Max)
	}
	if contended < int64(time.Millisecond) {
		t.Fatalf("contended Lock returned %dns, want ≥ 1ms", contended)
	}
}

// TestTimedMutexUninstrumented: an un-instrumented timed mutex still
// locks correctly (nil histogram is a no-op, not a panic).
func TestTimedMutexUninstrumented(t *testing.T) {
	var m TimedMutex
	m.Lock()
	m.Unlock()
}
