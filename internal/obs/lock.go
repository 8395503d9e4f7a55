package obs

import (
	"sync"
	"time"
)

// Lock-wait instrumentation. TimedMutex is a drop-in mutex that records
// how long each acquisition waited into an attached Histogram, so lock
// contention (the xserver's "lockwait.tree" and the farm's
// "lockwait.sessions", docs/observability.md) is measurable with the
// same machinery as every other latency in the system.
//
// Its method set is sync.Mutex's (Lock/Unlock), and tkcheck's lock
// analyzers know the timed type beside the sync ones, so "guarded by
// <mutex>" annotations and the lock-order graph cover timed mutexes
// exactly as they do plain ones.

// TimedMutex is a sync.Mutex whose Lock records the acquisition wait.
type TimedMutex struct {
	mu   sync.Mutex
	hist *Histogram // set once by Instrument before concurrent use
}

// Instrument attaches the wait histogram. Call before the mutex sees
// concurrent use (typically at construction); a nil or absent histogram
// leaves the mutex untimed.
func (m *TimedMutex) Instrument(h *Histogram) { m.hist = h }

// Lock acquires the mutex and returns how long it waited, in
// nanoseconds. An uncontended acquisition takes the TryLock fast path
// and records and returns a zero wait, so the histogram's count is the
// total number of acquisitions and its nonzero tail is the contended
// ones.
func (m *TimedMutex) Lock() (waitNs int64) {
	if !m.mu.TryLock() {
		start := time.Now()
		m.mu.Lock()
		waitNs = int64(time.Since(start))
	}
	if m.hist != nil {
		m.hist.ObserveNs(waitNs)
	}
	return waitNs
}

// Unlock releases the mutex.
func (m *TimedMutex) Unlock() { m.mu.Unlock() }
