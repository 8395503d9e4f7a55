// Package xclient is the client-side library for the simulated X display
// server — the analogue of Xlib in the paper's stack. It manages the
// connection, buffers requests, performs round trips for requests with
// replies, maintains the incoming event queue, and provides typed
// wrappers for every request the Tk toolkit needs.
package xclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xproto"
)

// ErrTimeout marks round-trip deadline expiry; test with errors.Is.
var ErrTimeout = errors.New("timeout")

// DefaultRoundTripTimeout bounds Cookie.Wait (and so every RoundTrip
// and Sync) unless SetRoundTripTimeout overrides it. A reply that takes
// this long means the server or the wire is wedged; waiting forever
// would wedge the client with it.
const DefaultRoundTripTimeout = 30 * time.Second

// setupTimeout bounds the initial setup-block read in Open, so a dialed
// connection to something that is not (or no longer) a display server
// fails fast instead of hanging the caller.
const setupTimeout = 10 * time.Second

// Display is an open connection to a display server.
//
// Its lock order is declared for cmd/tkcheck's lock-order analyzer:
// the writer lock may be held while registering a reply waiter.
//
// lock-order: mu -> rmu
type Display struct {
	conn net.Conn

	// Screen parameters from the setup block.
	Root   xproto.ID
	Width  int
	Height int

	// ErrorHandler receives asynchronous protocol errors (errors for
	// requests nobody was waiting on). Defaults to collecting them in
	// Errors.
	ErrorHandler func(msg string)

	mu     sync.Mutex    // serializes writers
	wbuf   xproto.Writer // guarded by mu — the output buffer, as Xlib keeps one
	wcount int           // guarded by mu — frames buffered since the last flush
	seq    uint64        // guarded by mu
	idNext uint32        // guarded by mu (written once more in Open, pre-publication): the last ID counted out
	idEnd  uint32        // guarded by mu (written once in Open, pre-publication): the last ID of the range
	idFree []xproto.ID   // guarded by mu: IDs handed back (FreeID), for NewID once idNext reaches idEnd
	closed bool          // guarded by mu

	// rmu guards what readLoop hands to other goroutines. Reply routing
	// follows the XCB cookie model: every reply-bearing request registers
	// a waiter keyed by its sequence number, so any number of requests
	// can be in flight at once and readLoop routes each reply/error to
	// its own waiter. Events go to an unbounded queue, as Xlib's do, so
	// the socket reader never blocks however far the application falls
	// behind. rmu is ordered after mu (SendWithReply takes mu then rmu;
	// nothing takes them the other way around).
	rmu     sync.Mutex
	waiters map[uint64]*Cookie // guarded by rmu
	evQueue []xproto.Event     // guarded by rmu — evQueue[evHead:] are queued
	evHead  int                // guarded by rmu
	errors  []string           // guarded by rmu — async errors for TakeErrors
	lostErr error              // guarded by rmu — set once when readLoop exits

	// One timer bounds every waited-on round trip: Wait records its
	// cookie's deadline and the timer is armed at the earliest one
	// recorded (armedAt; zero when disarmed). expire fails the overdue
	// cookies and re-arms; connLost stops it.
	timer      *time.Timer              // guarded by rmu — made by the first Wait
	timerOwner *atomic.Pointer[Display] // guarded by rmu — what the timer fires on
	armedAt    time.Time                // guarded by rmu

	// wake holds a token once readLoop has queued an event or lost the
	// connection since the consumer last took it (see Wake).
	wake chan struct{}

	// rtTimeout is the Cookie.Wait deadline in nanoseconds (0 disables);
	// atomic so SetRoundTripTimeout may be called from any goroutine.
	rtTimeout atomic.Int64

	// metrics records client-side traffic: "requests" and per-opcode
	// "requests.<OpName>" counters for everything sent, "async" for
	// one-way requests, "roundtrips" and the "roundtrip" latency
	// histogram for reply-bearing ones, "events" for deliveries. The
	// pipelining layer adds the "inflight" gauge (waiters outstanding),
	// the "pipelined" counter (reply-bearing requests issued while
	// another was already in flight) and the "flush.batch" histogram
	// (frames coalesced per wire write). The hardening layer adds
	// "errors.async" (protocol errors nobody was waiting on),
	// "roundtrip.timeout" (Cookie.Wait deadline expiries) and
	// "protocol.corrupt" (unreadable frame headers, each fatal to the
	// connection). The span layer adds "trace.sampled" (requests picked
	// for span recording) and "trace.spans" (spans recorded). The
	// pointer is immutable after Open; the registry is safe for
	// concurrent use.
	metrics *obs.Registry

	// tracer, when set, records spans for sampled reply-bearing requests
	// (see internal/obs/trace). Atomic so SetTracer may race requests.
	tracer atomic.Pointer[trace.Tracer]

	// tracedFlush is the sequence number of a sampled request buffered
	// since the last flush (0 = none), so flushLocked knows to time and
	// record the wire write that carries it. guarded by mu.
	tracedFlush uint64

	// Wire protocol v2 state (docs/pipelining.md, "Wire protocol v2").
	// wireTx says the upgrade was negotiated; it is settled during
	// OpenWith, before the Display is published. segTx is the segment
	// assembly scratch, segRx the readLoop's decompression scratch.
	wireTx bool   // immutable after OpenWith
	segTx  []byte // guarded by mu
	segRx  []byte // readLoop only

	// rttEwma is the smoothed round-trip estimate (ns) fed by every
	// completed round trip on a v2 connection; the adaptive flush
	// controller sizes the auto-flush threshold from it
	// (flushThresholdLocked). 0 = no samples yet (and always 0 on v1,
	// whose reply path skips the update entirely).
	rttEwma atomic.Int64

	// Metric handles, pre-resolved at Open so the send, flush, reply
	// and event hot paths pay atomic ops, not map lookups. Immutable
	// after Open, except opCtrs: each opcode's "requests.<OpName>"
	// counter, resolved on the opcode's first request so the registry
	// gains no zero-valued rows. Every request opcode fits in a byte, so
	// send indexes the table directly; a larger one panics at once.
	opCtrs         [256]*obs.Counter // guarded by mu
	requestsCtr    *obs.Counter
	asyncCtr       *obs.Counter
	roundtripsCtr  *obs.Counter
	pipelinedCtr   *obs.Counter
	eventsCtr      *obs.Counter
	inflightGa     *obs.Gauge
	roundtripHist  *obs.Histogram
	flushBatchHist *obs.Histogram
	wireSegs       *obs.Counter
	wireBytesRaw   *obs.Counter
	wireBytesWire  *obs.Counter
	wireSkipped    *obs.Counter
	wireDecodeErrs *obs.Counter
	wireThreshGa   *obs.Gauge
	wireRTTGa      *obs.Gauge
	sampledCtr     *obs.Counter
	spansCtr       *obs.Counter
}

// WireMode selects the wire protocol OpenWith negotiates at setup.
type WireMode int

const (
	// WireV1 speaks the original framing — the default. No upgrade
	// frame is written, so the connection is byte-for-byte identical to
	// a pre-v2 client (and stays decodable by the xtrace tap).
	WireV1 WireMode = iota
	// WireV2 requests the LBX-style v2 upgrade (checksummed,
	// flate-compressed segments of v1 frames and latency-adaptive
	// flushing; docs/pipelining.md) and falls back to v1 transparently
	// if the server declines.
	WireV2
)

// Config configures OpenWith. The zero value reproduces Open exactly.
type Config struct {
	// Session names the virtual display to attach on a session farm
	// (docs/farm.md); a non-empty name implies the attach handshake.
	Session string
	// Attach writes the session-attach handshake even when Session is
	// empty (selecting the farm's default session) — what OpenSession
	// has always done.
	Attach bool
	// Wire selects the wire protocol to negotiate.
	Wire WireMode
}

// Open establishes a Display over an existing connection (from
// xserver.ConnectPipe or net.Dial).
func Open(conn net.Conn) (*Display, error) {
	return OpenWith(conn, Config{})
}

// OpenWith establishes a Display with explicit session and
// wire-protocol configuration. Both handshakes are written raw, in one
// write, before the setup block is read, and neither carries a sequence
// number on either side, so the cookie/span sequence lockstep is
// untouched whatever is negotiated.
func OpenWith(conn net.Conn, cfg Config) (*Display, error) {
	var hs xproto.Writer
	if cfg.Attach || cfg.Session != "" {
		hs.RequestFrame(&xproto.AttachSessionReq{Session: cfg.Session})
	}
	if cfg.Wire == WireV2 {
		hs.RequestFrame(&xproto.UpgradeWireReq{Version: 2})
	}
	if len(hs.Bytes()) > 0 {
		if _, err := conn.Write(hs.Bytes()); err != nil {
			conn.Close()
			return nil, fmt.Errorf("xclient: writing connection handshake: %w", err)
		}
	}
	d := &Display{
		conn:    conn,
		waiters: make(map[uint64]*Cookie),
		wake:    make(chan struct{}, 1),
		metrics: obs.NewRegistry(),
	}
	d.rtTimeout.Store(int64(DefaultRoundTripTimeout))
	// The setup block arrives before anything else. Bound the wait so a
	// dead endpoint fails the Open instead of hanging it.
	conn.SetReadDeadline(time.Now().Add(setupTimeout))
	kind, payload, err := xproto.ReadServerFrame(conn, nil)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		// A server that is already shut down closes (or has closed) the
		// connection before sending any setup block; distinguish that
		// from a genuinely malformed stream so the caller sees what
		// actually happened instead of a bare EOF.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
			errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
			return nil, fmt.Errorf("xclient: display server closed the connection during setup (server not running or already shut down): %w", err)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, fmt.Errorf("xclient: no connection setup block within %v (endpoint is not a display server, or is wedged): %w", setupTimeout, err)
		}
		return nil, fmt.Errorf("xclient: connection setup failed: %w", err)
	}
	if kind == xproto.KindError {
		// A pre-setup refusal: a session farm rejecting admission (cap
		// reached, malformed attach) answers with a sequence-0 error
		// frame instead of a setup block. Surface its message.
		conn.Close()
		r := xproto.NewReader(payload)
		r.U64() // sequence; 0 for pre-setup refusals
		if msg := r.String(); r.Err() == nil && msg != "" {
			return nil, fmt.Errorf("xclient: display server refused the connection: %s", msg)
		}
		return nil, fmt.Errorf("xclient: display server refused the connection")
	}
	if kind != xproto.KindReply {
		conn.Close()
		return nil, fmt.Errorf("xclient: unexpected setup message kind %d", kind)
	}
	var setup xproto.SetupReply
	setup.Decode(xproto.NewReader(payload))
	d.Root = setup.Root
	d.Width = int(setup.Width)
	d.Height = int(setup.Height)
	d.idNext, d.idEnd = setup.ResourceIDBase, setup.ResourceIDBase+xproto.IDRange-1
	if cfg.Wire == WireV2 {
		// The ack is queued right behind the setup block (the server's
		// request loop consumed the upgrade before dispatching anything),
		// so it is read synchronously here — the negotiation is settled
		// before the read loop starts and before the first request.
		conn.SetReadDeadline(time.Now().Add(setupTimeout))
		kind, ack, err := xproto.ReadServerFrame(conn, nil)
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("xclient: reading wire upgrade ack: %w", err)
		}
		if kind != xproto.KindWireAck || len(ack) < 1 {
			conn.Close()
			return nil, fmt.Errorf("xclient: malformed wire upgrade ack (kind %d, %d bytes)", kind, len(ack))
		}
		// A version-1 ack is the transparent fallback: the server
		// declined and both sides continue in v1 framing.
		d.wireTx = ack[0] >= 2
	}
	d.requestsCtr = d.metrics.Counter("requests")
	d.asyncCtr = d.metrics.Counter("async")
	d.roundtripsCtr = d.metrics.Counter("roundtrips")
	d.pipelinedCtr = d.metrics.Counter("pipelined")
	d.eventsCtr = d.metrics.Counter("events")
	d.inflightGa = d.metrics.Gauge("inflight")
	d.roundtripHist = d.metrics.Histogram("roundtrip")
	d.flushBatchHist = d.metrics.Histogram("flush.batch")
	d.wireSegs = d.metrics.Counter("wire.segments.v2")
	d.wireBytesRaw = d.metrics.Counter("wire.bytes.raw")
	d.wireBytesWire = d.metrics.Counter("wire.bytes.wire")
	// No request is delta-coded, so these stay 0. They are registered
	// only because tkbench requires both series on every client
	// registry; they go when its delta_hit_ratio row does.
	d.metrics.Counter("wire.delta.hits")
	d.metrics.Counter("wire.delta.misses")
	d.wireSkipped = d.metrics.Counter("wire.compress.skipped")
	d.wireDecodeErrs = d.metrics.Counter("wire.decode.errors")
	d.wireThreshGa = d.metrics.Gauge("wire.flush.threshold")
	d.wireRTTGa = d.metrics.Gauge("wire.rtt.ewma")
	d.sampledCtr = d.metrics.Counter("trace.sampled")
	d.spansCtr = d.metrics.Counter("trace.spans")
	go d.readLoop()
	return d, nil
}

// WireVersion reports the negotiated wire protocol: 2 after an accepted
// upgrade, 1 otherwise (including declined upgrades).
func (d *Display) WireVersion() int {
	if d.wireTx {
		return 2
	}
	return 1
}

// Dial connects to a display server at a TCP address.
func Dial(addr string) (*Display, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Open(conn)
}

// OpenSession establishes a Display attached to the named virtual
// display of a session-multiplexing server (xserver.Farm,
// docs/farm.md). The attach handshake is written raw before the setup
// read — it carries no sequence number on either side, so against a
// plain single-display server (which consumes it without counting it)
// the connection behaves exactly like Open. The empty name selects the
// farm's default session.
func OpenSession(conn net.Conn, session string) (*Display, error) {
	return OpenWith(conn, Config{Session: session, Attach: true})
}

// Close shuts the connection down.
func (d *Display) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	// The read loop sees the closed connection and reports the loss to
	// the event consumer (connLost).
	d.conn.Close()
	d.mu.Unlock()
}

// Closed reports whether the display connection has been closed.
func (d *Display) Closed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// NewID allocates a resource ID from this connection's range. It counts
// through the range first, then reuses the IDs handed back with FreeID,
// as Xlib reuses freed IDs once its range is spent, so the client never
// names an ID outside its range. With none left it returns None, which
// every create request refuses.
func (d *Display) NewID() xproto.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idNext < d.idEnd {
		d.idNext++
		return xproto.ID(d.idNext)
	}
	n := len(d.idFree)
	if n == 0 {
		return 0
	}
	id := d.idFree[n-1]
	d.idFree = d.idFree[:n-1]
	return id
}

// FreeID hands back id for NewID to reuse. id names a resource of this
// connection that was never created, or that a request already queued
// frees, so a create request that reuses it reaches the server after
// that free. The free wrappers (DestroyWindow, FreeGC, FreePixmap,
// CloseFont) call it for the ID they free; a client that destroys a
// window hands back the IDs of the window's descendants itself.
//
// Only the IDs handed back once NewID has counted out all but the last
// keepIDs of the range are kept: a client that never spends its range
// keeps none, and one that does reuses what it freed since. An ID from
// outside the connection's range is ignored.
func (d *Display) FreeID(id xproto.ID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idEnd-d.idNext < keepIDs && uint32(id)&^(xproto.IDRange-1) == d.idEnd&^(xproto.IDRange-1) {
		d.idFree = append(d.idFree, id)
	}
}

// keepIDs is how near the end of its range a connection's ID count must
// be before FreeID keeps what it is handed: an eighth of the range, so a
// client reaches it only after creating 1.8 million resources, and then
// keeps at most 1 MiB of IDs.
const keepIDs = xproto.IDRange / 8

// readBufSize is the read loop's buffer, XCB's read-buffer size: a
// burst of frames the server wrote at once is read a buffer at a time,
// not in two reads (header, payload) per frame.
const readBufSize = 4096

// readLoop dispatches incoming server messages. Events go to the
// unbounded queue so this loop never stalls on a slow consumer;
// replies and errors are routed to their waiting cookie by sequence
// number. Any framing damage — a read error, a torn frame, an unknown
// frame kind — is unrecoverable (stream alignment is gone), so it is
// turned into one clean connection-lost error that fails every
// outstanding and future cookie rather than hanging them.
func (d *Display) readLoop() {
	// Frames are read through a buffer into a reusable scratch buffer.
	// Events are decoded before the next read (Event.Decode copies what
	// it keeps), so the steady-state event path allocates nothing; reply
	// and error payloads outlive the loop iteration inside their cookie
	// (decode happens lazily at Wait), so those are copied out of the
	// scratch.
	in := bufio.NewReaderSize(d.conn, readBufSize)
	var scratch []byte
	for {
		kind, payload, err := xproto.ReadServerFrame(in, scratch)
		if err != nil {
			d.connLost(fmt.Errorf("xclient: connection lost: %w", err))
			return
		}
		scratch = payload
		if kind == xproto.KindWireSeg {
			// A v2 segment of batched server frames: verify, unwrap and
			// handle each inner frame. Decode failure is fatal — the
			// checksum no longer vouches for the stream.
			raw, s2, derr := xproto.DecodeSegmentPayload(payload, d.segRx)
			d.segRx = s2
			if derr == nil {
				derr = xproto.WalkServerFrames(raw, d.handleServerFrame)
			}
			if derr != nil {
				d.wireDecodeErrs.Inc()
				d.metrics.Counter("protocol.corrupt").Inc()
				d.conn.Close()
				d.connLost(fmt.Errorf("xclient: protocol corruption: %w", derr))
				return
			}
			continue
		}
		if err := d.handleServerFrame(kind, payload); err != nil {
			// Garbage where a frame header should be: the stream can no
			// longer be trusted byte-for-byte. Fail cleanly.
			d.metrics.Counter("protocol.corrupt").Inc()
			d.conn.Close()
			d.connLost(err)
			return
		}
	}
}

// handleServerFrame processes one server frame — bare off the wire or
// unwrapped from a v2 segment. A returned error is fatal to the
// connection (stream alignment or trust is gone); recoverable damage
// inside a correctly delimited frame surfaces through asyncError.
func (d *Display) handleServerFrame(kind byte, payload []byte) error {
	switch kind {
	case xproto.KindEvent:
		var ev xproto.Event
		r := xproto.NewReader(payload)
		ev.Decode(r)
		if r.Err() != nil {
			// The frame itself was delimited correctly, so the
			// stream is still aligned: surface the damage and skip
			// the frame instead of killing the connection.
			d.asyncError(fmt.Sprintf("malformed event: %v", r.Err()))
			return nil
		}
		d.eventsCtr.Inc()
		d.queueEvent(ev)
		return nil
	case xproto.KindReply, xproto.KindError:
		d.routeReply(kind, append([]byte(nil), payload...))
		return nil
	default:
		return fmt.Errorf("xclient: protocol corruption: unknown frame kind %d", kind)
	}
}

// queueEvent appends ev to the event queue and wakes the consumer.
func (d *Display) queueEvent(ev xproto.Event) {
	d.rmu.Lock()
	if len(d.evQueue) == cap(d.evQueue) && d.evHead >= len(d.evQueue)/2 {
		// At least half of the full array has been polled: move the
		// rest to its front instead of growing it, so a queue that
		// never drains keeps an array a small multiple of its depth.
		d.evQueue = d.evQueue[:copy(d.evQueue, d.evQueue[d.evHead:])]
		d.evHead = 0
	}
	d.evQueue = append(d.evQueue, ev)
	d.rmu.Unlock()
	d.signal()
}

// connLost marks the connection dead with its root cause: every cookie
// still waiting (or registered from now on) fails with err instead of
// blocking forever, and the event consumer is woken to see the loss
// once it has drained the queue.
func (d *Display) connLost(err error) {
	d.rmu.Lock()
	d.lostErr = err
	for seq, ck := range d.waiters {
		delete(d.waiters, seq)
		ck.resolve(nil, err)
	}
	d.inflightGa.Set(0)
	if d.timer != nil {
		d.timer.Stop()
		d.timerOwner.Store(nil)
	}
	d.rmu.Unlock()
	d.signal()
}

// awaitDeadline records that ck, if still pending, must be answered by
// deadline, arming the display's timer when it is disarmed or set later.
func (d *Display) awaitDeadline(ck *Cookie, deadline time.Time) {
	d.rmu.Lock()
	defer d.rmu.Unlock()
	if d.waiters[ck.seq] != ck || !ck.deadline.IsZero() {
		return
	}
	ck.deadline = deadline
	if d.armedAt.IsZero() || d.armedAt.After(deadline) {
		d.armLocked(deadline)
	}
}

// armLocked sets the timer to fire at deadline. Called with d.rmu held.
func (d *Display) armLocked(deadline time.Time) {
	d.armedAt = deadline
	if d.timer != nil {
		d.timer.Reset(time.Until(deadline))
		return
	}
	// The runtime may keep a stopped timer in its heap until the time it
	// was set for, so the timer reaches the display through a pointer
	// that connLost clears.
	owner := new(atomic.Pointer[Display])
	owner.Store(d)
	d.timerOwner = owner
	d.timer = time.AfterFunc(time.Until(deadline), func() {
		if d := owner.Load(); d != nil {
			d.expire()
		}
	})
}

// expire runs when the timer fires: every waited-on cookie whose
// deadline has passed fails with ErrTimeout, and the timer is re-armed
// for the earliest deadline left. A reply that arrives later is
// reported through the async-error path.
func (d *Display) expire() {
	d.rmu.Lock()
	defer d.rmu.Unlock()
	now := time.Now()
	var next time.Time
	for seq, ck := range d.waiters {
		switch {
		case ck.deadline.IsZero():
		case !ck.deadline.After(now):
			delete(d.waiters, seq)
			d.metrics.Counter("roundtrip.timeout").Inc()
			ck.resolve(nil, fmt.Errorf("xclient: round trip (seq %d) timed out after %v: %w",
				seq, now.Sub(ck.begin).Round(time.Millisecond), ErrTimeout))
		case next.IsZero() || ck.deadline.Before(next):
			next = ck.deadline
		}
	}
	d.inflightGa.Set(int64(len(d.waiters)))
	d.armedAt = time.Time{}
	if !next.IsZero() {
		d.armLocked(next)
	}
}

// signal leaves a wake token for the event consumer unless one is
// already waiting.
func (d *Display) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// routeReply delivers one reply or error frame to the cookie waiting on
// its sequence number. Frames nobody is waiting on surface through
// asyncError.
func (d *Display) routeReply(kind byte, payload []byte) {
	r := xproto.NewReader(payload)
	seq := r.U64()
	if r.Err() != nil {
		d.asyncError(fmt.Sprintf("malformed server message: %v", r.Err()))
		return
	}
	d.rmu.Lock()
	ck := d.waiters[seq]
	if ck != nil {
		delete(d.waiters, seq)
		d.inflightGa.Set(int64(len(d.waiters)))
	}
	d.rmu.Unlock()
	if ck == nil {
		if kind == xproto.KindError {
			d.asyncError(r.String())
		} else {
			d.asyncError(fmt.Sprintf("unexpected reply seq %d", seq))
		}
		return
	}
	// The histogram records issue→answer wall time, so it includes the
	// server's simulated IPC latency — the quantity §3.3's caches exist
	// to avoid paying.
	elapsed := time.Since(ck.begin)
	d.roundtripHist.Observe(elapsed)
	if d.wireTx {
		// Only the v2 flush controller consumes the EWMA; keep the v1
		// reply path free of the extra CAS + gauge store.
		d.observeRTT(int64(elapsed))
	}
	if ck.traced {
		if tr := d.tracer.Load(); tr != nil {
			tr.Record(trace.Span{
				Seq: ck.seq, Name: "client.rtt", Side: "client",
				Op:    xproto.OpName(ck.op),
				Start: ck.begin.UnixNano(), Dur: int64(elapsed),
			})
			d.spansCtr.Inc()
		}
	}
	if kind == xproto.KindError {
		ck.resolve(nil, fmt.Errorf("x error: %s", r.String()))
		return
	}
	ck.resolve(payload[8:], nil)
}

// PollEvent takes the oldest queued event, without waiting: ok reports
// whether there was one. With the queue empty, lost reports whether the
// connection is gone, so no event will ever arrive. The read loop is
// sequential, so once a round trip (Sync) returns, every event the
// server sent before its reply is already in the queue.
func (d *Display) PollEvent() (ev xproto.Event, ok, lost bool) {
	d.rmu.Lock()
	defer d.rmu.Unlock()
	if d.evHead == len(d.evQueue) {
		return ev, false, d.lostErr != nil
	}
	ev = d.evQueue[d.evHead]
	d.evHead++
	if d.evHead == len(d.evQueue) {
		// Drained: the next burst refills the array from its start, as
		// Xlib reuses its event structures.
		d.evQueue, d.evHead = d.evQueue[:0], 0
	}
	return ev, true, false
}

// Wake returns the channel an idle event loop selects on beside its
// other sources, as an Xlib client selects on ConnectionNumber: it
// holds a token once an event has been queued, or the connection lost,
// since the last receive. A token may outlive the events it announced
// (they were polled already), so a wake is a cue to PollEvent, not a
// promise of an event. One goroutine consumes a display's events.
func (d *Display) Wake() <-chan struct{} { return d.wake }

// SetRoundTripTimeout replaces the deadline Cookie.Wait applies to
// every round trip (DefaultRoundTripTimeout initially; 0 disables).
// Safe to call from any goroutine.
func (d *Display) SetRoundTripTimeout(timeout time.Duration) {
	d.rtTimeout.Store(int64(timeout))
}

// asyncError records or reports a protocol error nobody is waiting on.
func (d *Display) asyncError(msg string) {
	d.metrics.Counter("errors.async").Inc()
	if d.ErrorHandler != nil {
		d.ErrorHandler(msg)
		return
	}
	d.rmu.Lock()
	d.errors = append(d.errors, msg)
	d.rmu.Unlock()
}

// TakeErrors returns and clears the accumulated asynchronous errors.
func (d *Display) TakeErrors() []string {
	d.rmu.Lock()
	defer d.rmu.Unlock()
	errs := d.errors
	d.errors = nil
	return errs
}

// Metrics returns the client-side registry (see the field doc for the
// metric names).
func (d *Display) Metrics() *obs.Registry { return d.metrics }

// SetTracer attaches (or, with nil, detaches) a span tracer. The tracer
// samples reply-bearing requests by sequence number; pair it with a
// server-side tracer at the same interval to get both halves of each
// sampled request (see internal/obs/trace).
func (d *Display) SetTracer(t *trace.Tracer) { d.tracer.Store(t) }

// send buffers a request, encoding its frame in place in the output
// buffer. v1 and v2 buffer the same frames; v2 differs only at flush,
// where the buffer is wrapped into a segment. Must be called with d.mu
// held.
func (d *Display) send(req xproto.Request) uint64 {
	d.requestsCtr.Inc()
	op := req.Op()
	if d.opCtrs[op] == nil {
		d.opCtrs[op] = d.metrics.Counter("requests." + xproto.OpName(op))
	}
	d.opCtrs[op].Inc()
	d.seq++
	d.wbuf.RequestFrame(req)
	d.wcount++
	return d.seq
}

// flushLocked writes the buffered requests as one wire segment. Must be
// called with d.mu held.
func (d *Display) flushLocked() error {
	batch := d.wbuf.Bytes()
	if len(batch) == 0 || d.closed {
		return nil
	}
	frames := int64(d.wcount)
	// flush.batch is a count (frames per flush), not a duration.
	d.flushBatchHist.ObserveCount(frames)
	d.wcount = 0
	tracedSeq := d.tracedFlush
	d.tracedFlush = 0

	// Pick what actually goes on the wire: the v1 frames as they are, or
	// one v2 segment wrapping them.
	out := batch
	if d.wireTx {
		var compressed bool
		d.segTx, compressed = xproto.AppendWireSegRequestFrame(d.segTx[:0], batch)
		out = d.segTx
		d.wireSegs.Inc()
		if !compressed {
			d.wireSkipped.Inc()
		}
	}
	d.wireBytesRaw.Add(uint64(len(batch)))
	d.wireBytesWire.Add(uint64(len(out)))

	if tr := d.tracer.Load(); tr != nil && tracedSeq != 0 {
		bytes := int64(len(out))
		start := trace.Now()
		_, err := d.conn.Write(out)
		d.wbuf.Reset()
		tr.Record(trace.Span{
			Seq: tracedSeq, Name: "client.flush", Side: "client",
			Start: start, Dur: trace.Now() - start,
			Args: []trace.Arg{{Key: "frames", Val: frames}, {Key: "bytes", Val: bytes}},
		})
		d.spansCtr.Inc()
		return err
	}
	_, err := d.conn.Write(out)
	d.wbuf.Reset()
	return err
}

// observeRTT folds one measured round trip into the EWMA (alpha 1/4)
// that drives the adaptive flush threshold. Lock-free: routeReply runs
// on the read loop while flushes hold d.mu.
func (d *Display) observeRTT(ns int64) {
	for {
		cur := d.rttEwma.Load()
		next := ns
		if cur > 0 {
			next = cur + (ns-cur)/4
		}
		if next <= 0 {
			next = 1
		}
		if d.rttEwma.CompareAndSwap(cur, next) {
			d.wireRTTGa.Set(next)
			return
		}
	}
}

// flushThresholdLocked returns the buffered-bytes level that triggers an
// automatic flush. v1 keeps the historical fixed 32 KiB. v2 scales with
// the measured round-trip EWMA: on a fast local pipe small batches keep
// latency low; at WAN latencies the round trip dwarfs serialization
// time, so larger batches amortize per-segment cost without adding
// user-visible delay. 12 KiB of budget per 500 µs of RTT on top of an
// 8 KiB floor, clamped to 256 KiB.
func (d *Display) flushThresholdLocked() int {
	if !d.wireTx {
		return 32 << 10
	}
	rtt := d.rttEwma.Load()
	if rtt <= 0 {
		return 32 << 10 // no samples yet — keep the v1 default
	}
	th := 8<<10 + int(rtt/int64(500*time.Microsecond))*(12<<10)
	if th > 256<<10 {
		th = 256 << 10
	}
	d.wireThreshGa.Set(int64(th))
	return th
}

// Request buffers a one-way request (no reply). Like Xlib, requests are
// batched until a Flush or a round trip. Requests on a closed display
// are discarded.
func (d *Display) Request(req xproto.Request) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.asyncCtr.Inc()
	d.send(req)
	// Keep the buffer bounded even without explicit flushes.
	var flushErr error
	if len(d.wbuf.Bytes()) >= d.flushThresholdLocked() {
		flushErr = d.flushLocked()
	}
	d.mu.Unlock()
	if flushErr != nil {
		// Nobody is waiting on a one-way request; surface the write
		// failure the same way protocol errors for them surface.
		d.asyncError(fmt.Sprintf("xclient: flush failed: %v", flushErr))
	}
}

// Flush writes all buffered requests to the server.
func (d *Display) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushLocked()
}

// Cookie is the handle for an in-flight reply-bearing request (the XCB
// model): SendWithReply returns immediately and the reply is claimed
// later with Wait, so any number of requests can be pipelined into one
// wire segment before the first reply is needed. A cookie is resolved
// exactly once (by readLoop, or by connection teardown); Wait may be
// called from any goroutine, but decode runs only on the first call.
type Cookie struct {
	d     *Display
	seq   uint64
	begin time.Time
	done  chan struct{}

	// traced marks a request sampled for span recording; op is its
	// opcode, kept so the round-trip span can be labeled at resolve
	// time. Both are set before the cookie is registered and read-only
	// afterwards.
	traced bool
	op     uint16

	// Set exactly once, before done is closed.
	payload []byte
	err     error

	// deadline is when the display's timer fails the cookie, recorded
	// under the display's rmu by the first Wait; zero until then.
	deadline time.Time

	decoded  atomic.Bool
	waitSpan atomic.Bool // client.wait span recorded (Wait may be called twice)
}

// Seq returns the request's protocol sequence number.
func (ck *Cookie) Seq() uint64 { return ck.seq }

// resolve fills in the outcome and releases waiters. Called exactly
// once, by whoever removed the cookie from the waiter map.
func (ck *Cookie) resolve(payload []byte, err error) {
	ck.payload = payload
	ck.err = err
	close(ck.done)
}

// failedCookie returns an already-resolved cookie, for requests that
// cannot be issued at all.
func failedCookie(d *Display, err error) *Cookie {
	ck := &Cookie{d: d, done: make(chan struct{})}
	ck.resolve(nil, err)
	return ck
}

// SendWithReply buffers a reply-bearing request, registers a waiter for
// its sequence number and returns immediately — the pipelined
// counterpart of RoundTrip. The request is not written to the wire
// until the next Flush (or a Cookie.Wait, which flushes first), so a
// batch of SendWithReply calls travels as one segment.
func (d *Display) SendWithReply(req xproto.Request) *Cookie {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return failedCookie(d, fmt.Errorf("xclient: display closed"))
	}
	d.roundtripsCtr.Inc()
	ck := &Cookie{d: d, begin: time.Now(), done: make(chan struct{})}
	ck.seq = d.send(req)
	if tr := d.tracer.Load(); tr != nil && tr.Sampled(ck.seq) {
		ck.traced = true
		ck.op = req.Op()
		d.tracedFlush = ck.seq
		d.sampledCtr.Inc()
	}
	d.rmu.Lock()
	if lost := d.lostErr; lost != nil {
		d.rmu.Unlock()
		d.mu.Unlock()
		ck.resolve(nil, lost)
		return ck
	}
	if len(d.waiters) > 0 {
		d.pipelinedCtr.Inc()
	}
	d.waiters[ck.seq] = ck
	d.inflightGa.Set(int64(len(d.waiters)))
	d.rmu.Unlock()
	d.mu.Unlock()
	return ck
}

// failCookie resolves ck with err if it is still pending; a cookie the
// read loop already resolved is left alone.
func (d *Display) failCookie(ck *Cookie, err error) {
	d.rmu.Lock()
	if d.waiters[ck.seq] == ck {
		delete(d.waiters, ck.seq)
		d.inflightGa.Set(int64(len(d.waiters)))
		ck.resolve(nil, err)
	}
	d.rmu.Unlock()
}

// Wait flushes any buffered requests (so the awaited request is on the
// wire) and blocks until the reply arrives, decoding it with decode.
// It does not hold the display lock while blocked, so other goroutines
// can keep issuing requests and waiting on their own cookies. Protocol
// errors for this request surface as the returned error. Calling Wait
// again returns the same error outcome without re-decoding.
//
// The wait is bounded by the display's round-trip timeout
// (SetRoundTripTimeout), counted from the first Wait: a wedged server
// or wire resolves the cookie with an error satisfying
// errors.Is(err, ErrTimeout) instead of blocking the caller forever. The
// display's one timer enforces every waiting cookie's deadline, so a
// wait arms no timer of its own. A reply that arrives after the
// deadline is reported through the async-error path, not delivered here.
func (ck *Cookie) Wait(decode func(r *xproto.Reader)) error {
	var waitStart int64
	if ck.traced {
		waitStart = trace.Now()
	}
	if err := ck.d.Flush(); err != nil {
		ck.d.failCookie(ck, err)
	}
	if to := time.Duration(ck.d.rtTimeout.Load()); to > 0 {
		ck.d.awaitDeadline(ck, time.Now().Add(to))
	}
	<-ck.done
	if ck.traced && ck.waitSpan.CompareAndSwap(false, true) {
		if tr := ck.d.tracer.Load(); tr != nil {
			tr.Record(trace.Span{
				Seq: ck.seq, Name: "client.wait", Side: "client",
				Op:    xproto.OpName(ck.op),
				Start: waitStart, Dur: trace.Now() - waitStart,
			})
			ck.d.spansCtr.Inc()
		}
	}
	if ck.err != nil {
		return ck.err
	}
	if !ck.decoded.CompareAndSwap(false, true) {
		return nil
	}
	if decode != nil {
		r := xproto.NewReader(ck.payload)
		decode(r)
		return r.Err()
	}
	return nil
}

// RoundTrip sends a request and blocks until its reply arrives, decoding
// it with decode. Protocol errors for this request surface as errors.
// It is a thin shim over SendWithReply + Wait.
func (d *Display) RoundTrip(req xproto.Request, decode func(r *xproto.Reader)) error {
	return d.SendWithReply(req).Wait(decode)
}

// Sync flushes and waits until the server has processed everything
// (an empty round trip, like XSync).
func (d *Display) Sync() error {
	return d.RoundTrip(&xproto.PingReq{}, nil)
}
