package obs

import (
	"sync"
	"time"
)

// Lock-wait instrumentation. TimedMutex and TimedRWMutex are drop-in
// mutexes that record how long each acquisition waited into an attached
// Histogram, so per-subsystem lock contention (the xserver's
// "lockwait.*" histograms, docs/observability.md) is measurable with
// the same machinery as every other latency in the system.
//
// The method sets are intentionally identical to sync.Mutex /
// sync.RWMutex (Lock/Unlock, plus RLock/RUnlock), and tkcheck's lock
// analyzers know the timed types beside the sync ones, so "guarded by
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

// Lock acquires the mutex. An uncontended acquisition takes the TryLock
// fast path and records a zero wait, so the histogram's count is the
// total number of acquisitions and its nonzero tail is the contended
// ones.
func (m *TimedMutex) Lock() {
	if m.mu.TryLock() {
		if m.hist != nil {
			m.hist.ObserveNs(0)
		}
		return
	}
	start := time.Now()
	m.mu.Lock()
	wait := int64(time.Since(start))
	if m.hist != nil {
		m.hist.ObserveNs(wait)
	}
	noteWait(m.hist, wait)
}

// Unlock releases the mutex.
func (m *TimedMutex) Unlock() { m.mu.Unlock() }

// TimedRWMutex is a sync.RWMutex whose Lock and RLock record the
// acquisition wait into the attached histogram.
type TimedRWMutex struct {
	mu   sync.RWMutex
	hist *Histogram // set once by Instrument before concurrent use
}

// Instrument attaches the wait histogram (see TimedMutex.Instrument).
func (m *TimedRWMutex) Instrument(h *Histogram) { m.hist = h }

// Lock acquires the write lock, recording the wait.
func (m *TimedRWMutex) Lock() {
	if m.mu.TryLock() {
		if m.hist != nil {
			m.hist.ObserveNs(0)
		}
		return
	}
	start := time.Now()
	m.mu.Lock()
	wait := int64(time.Since(start))
	if m.hist != nil {
		m.hist.ObserveNs(wait)
	}
	noteWait(m.hist, wait)
}

// Unlock releases the write lock.
func (m *TimedRWMutex) Unlock() { m.mu.Unlock() }

// RLock acquires the read lock, recording the wait.
func (m *TimedRWMutex) RLock() {
	if m.mu.TryRLock() {
		if m.hist != nil {
			m.hist.ObserveNs(0)
		}
		return
	}
	start := time.Now()
	m.mu.RLock()
	wait := int64(time.Since(start))
	if m.hist != nil {
		m.hist.ObserveNs(wait)
	}
	noteWait(m.hist, wait)
}

// RUnlock releases the read lock.
func (m *TimedRWMutex) RUnlock() { m.mu.RUnlock() }
