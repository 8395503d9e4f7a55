// Package fixtures exercises the pool-lifetime analyzer: both checkout
// idioms (AcquireWriter/ReleaseWriter and raw sync.Pool Get/Put), leak
// detection per return path, use-after-release, escapes (a channel send
// included), and the sanctioned accessor idiom.
package fixtures

import "sync"

type writer struct{ buf []byte }

var wPool = sync.Pool{New: func() any { return new(writer) }}

// AcquireWriter checks a writer out of the pool (the accessor the
// analyzer pairs with ReleaseWriter).
func AcquireWriter() *writer { return wPool.Get().(*writer) }

// ReleaseWriter returns a writer to the pool.
func ReleaseWriter(w *writer) { wPool.Put(w) }

type buffer struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(buffer) }}

// AcquireBuffer hands a raw checkout to its caller: the accessor idiom
// a return is allowed from.
func AcquireBuffer() *buffer {
	bp := framePool.Get().(*buffer)
	return bp
}

type holder struct{ w *writer }

// goodLinear acquires and releases on the only path.
func goodLinear() {
	w := AcquireWriter()
	w.buf = append(w.buf, 1)
	ReleaseWriter(w)
}

// goodDefer covers the early return with a plain deferred release.
func goodDefer(cond bool) {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	if cond {
		return
	}
	w.buf = nil
}

// goodDeferClosure covers every path with a closure-wrapped release.
func goodDeferClosure() {
	w := AcquireWriter()
	defer func() { ReleaseWriter(w) }()
	w.buf = nil
}

// goodTransfer hands the checkout to a consumer over a channel: an
// escape, though it puts the checkout back when the consumer is full.
func goodTransfer(out chan *buffer) {
	bp := framePool.Get().(*buffer)
	select {
	case out <- bp:
	default:
		framePool.Put(bp)
	}
}

// leakOnEarlyReturn forgets the release on the error path.
func leakOnEarlyReturn(cond bool) {
	w := AcquireWriter()
	if cond {
		return
	}
	ReleaseWriter(w)
}

// leakOnPanic leaves the checkout live when it panics.
func leakOnPanic() {
	w := AcquireWriter()
	w.buf = nil
	panic("boom")
}

// useAfterRelease touches the writer after it went back to the pool.
func useAfterRelease() {
	w := AcquireWriter()
	ReleaseWriter(w)
	w.buf = nil
}

// doubleRelease returns the same checkout twice.
func doubleRelease() {
	w := AcquireWriter()
	ReleaseWriter(w)
	ReleaseWriter(w)
}

// escapeByChannel sends a Writer away instead of releasing it.
func escapeByChannel(ch chan *writer) {
	w := AcquireWriter()
	ch <- w
}

// escapeByReturn hands out a checkout from a non-accessor.
func escapeByReturn() *writer {
	w := AcquireWriter()
	return w
}

// escapeByStore parks the checkout in a longer-lived struct.
func escapeByStore(h *holder) {
	w := AcquireWriter()
	h.w = w
}

// enqueueBuffer either sends the buffer on or returns it to the pool;
// its name transfers no ownership.
func enqueueBuffer(out chan *buffer, bp *buffer) {
	select {
	case out <- bp:
	default:
		framePool.Put(bp)
	}
}

// goodEnqueueHandoff passes a raw checkout to an enqueue* helper,
// which does not transfer ownership: a leak at return.
func goodEnqueueHandoff(out chan *buffer) {
	bp := framePool.Get().(*buffer)
	bp.b = append(bp.b[:0], 1)
	enqueueBuffer(out, bp)
}

// leakViaPlainCall passes a checkout to a plain function, which does
// not transfer ownership either: still a leak at return.
func leakViaPlainCall(out chan *buffer) {
	bp := framePool.Get().(*buffer)
	deliverBuffer(out, bp)
}

func deliverBuffer(out chan *buffer, bp *buffer) {
	select {
	case out <- bp:
	default:
		framePool.Put(bp)
	}
}
