package obs

import "sync"

// Entry is one element in a Ring, tagged with its global sequence
// number (1-based, never reset by wraparound).
type Entry[T any] struct {
	Seq uint64
	Val T
}

// Ring is a bounded, concurrency-safe ring buffer. The wire tracer
// appends a decoded line per protocol message and the span tracer a
// span per sampled phase; when the buffer is full the oldest elements
// are overwritten, so a long-running application keeps the most recent
// window.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []Entry[T] // guarded by mu; fixed capacity
	next int        // guarded by mu; index of the next write
	size int        // guarded by mu; number of valid entries
	seq  uint64     // guarded by mu; total appends ever
}

// NewRing returns a ring holding at most capacity elements (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]Entry[T], capacity)}
}

// Append adds an element, overwriting the oldest if full, and returns
// its sequence number.
func (r *Ring[T]) Append(v T) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.buf[r.next] = Entry[T]{Seq: r.seq, Val: v}
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	return r.seq
}

// Last returns the most recent n entries in chronological order (all
// retained entries if n ≤ 0 or n exceeds the retained count).
func (r *Ring[T]) Last(n int) []Entry[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.size {
		n = r.size
	}
	out := make([]Entry[T], n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// Len reports how many entries are currently retained.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Total reports how many entries were ever appended.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped reports how many entries were overwritten: those appended
// but no longer retained.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - uint64(r.size)
}

// Reset discards all entries and restarts sequence numbering.
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next, r.size, r.seq = 0, 0, 0
}
