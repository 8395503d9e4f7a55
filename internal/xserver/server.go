// Package xserver implements a simulated X11 display server. It stands in
// for the real X server the paper ran against (X11R4 on a DECstation
// 3100): clients connect over any net.Conn (in-process pipes or TCP
// between separate OS processes), speak the request/reply/event protocol
// defined in internal/xproto, and the server maintains the window tree,
// properties, atoms, selections, input focus, pointer state, and actual
// pixel contents — so screenshots like the paper's Figure 10 can be
// regenerated, and protocol traffic (the thing Tk's resource caches
// exist to reduce, §3.3) can be counted and measured.
package xserver

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xproto"
)

// Server is a simulated X display.
//
// One mutex, mu, serializes request handling, as X's own dispatch loop
// does: the request loop takes it once per request and holds it across
// the handler (dispatch), so a handler may touch any server state.
// Displays are independent — a farm runs its sessions in parallel, one
// Server each — and decoding, the simulated latency sleeps, frame
// writing and screenshot composition all run outside mu, so the clients
// of one display still overlap everything but the handlers themselves
// (docs/architecture.md, "One lock per display"). Every mutable field
// carries a "guarded by mu" annotation, and cmd/tkcheck's lock analyzer
// checks that annotated fields are only touched with mu held (or from
// methods documented "s.mu held").
//
// Nothing blocks while mu is held. Each connection has one output
// buffer, as each X client does, and a handler appends whole frames to
// it (conn.push): the requesting connection's frames always, and an
// event for any other connection only while that connection's buffer
// has room (Server.sendEvent). A requester whose buffer is full waits
// for the writer after its request, with mu released (conn.waitRoom).
// A connection's buffer lock nests inside mu. mu is an obs.TimedMutex
// whose waits land in the "lockwait.tree" histogram.
//
// Tile render state needs no lock of its own: a tiled image's slab
// pointers and copy-on-write shared/dirty flags are guarded by mu like
// every other pixel, and every draw request runs inline on the
// goroutine that dispatches it. Screenshot snapshots alias slabs under
// mu and are immutable afterwards (writers clone shared slabs instead
// of mutating them), so composing and packing a snapshot takes no lock
// at all.
//
// lock-order: mu -> conn.outMu
type Server struct {
	width, height int     // immutable after New
	root          *window // the pointer is immutable; its contents are guarded by mu

	mu         obs.TimedMutex
	requester  *conn                      // guarded by mu: the connection whose request holds mu
	res        map[xproto.ID]any          // guarded by mu: every window, pixmap, GC, font and cursor (resources.go)
	atoms      map[string]xproto.Atom     // guarded by mu
	atomNames  map[xproto.Atom]string     // guarded by mu
	nextAtom   xproto.Atom                // guarded by mu
	selections map[xproto.Atom]*selection // guarded by mu
	focus      xproto.ID                  // guarded by mu
	pointerX   int                        // guarded by mu
	pointerY   int                        // guarded by mu
	buttons    uint16                     // guarded by mu
	modifiers  uint16                     // guarded by mu
	pointerWin *window                    // guarded by mu
	grabWin    *window                    // guarded by mu

	// colorCells interns resolved color specs (the stand-in for
	// colormap cell allocation), bounded by the distinct colors clients
	// actually use.
	colorCells map[string]uint32 // guarded by mu

	conns      map[*conn]bool // guarded by mu
	listener   net.Listener   // guarded by mu
	closed     bool           // guarded by mu
	nextIDBase uint32         // guarded by mu: the next fresh resource-ID block's base, 0 once none is left (takeIDBase)
	freeBases  []uint32       // guarded by mu: the resource-ID blocks departed clients left, for the next ones

	latency      atomic.Int64 // nanoseconds per wire segment
	writeTimeout atomic.Int64 // nanoseconds a stalled peer may block a write
	wireV2       atomic.Bool  // accept wire-protocol-v2 upgrades (SetWireV2)
	start        time.Time    // immutable after New

	// Resource quota (SetQuota, docs/farm.md): allocating handlers
	// reserve against the limit, and free (or destroyWindow, for a
	// window's subtree) releases what the allocation reserved. A zero
	// limit means unlimited. quota is set before the server accepts its
	// first connection and immutable afterwards.
	quota           Quota
	usedWindows     int64 // guarded by mu
	usedPixmapBytes int64 // guarded by mu
	usedGCs         int64 // guarded by mu

	// rollup aggregation (SetRollup): when this server is one session of
	// a farm, the farm's registry is attached here and the hot dispatch
	// path bumps these pre-resolved handles alongside the per-session
	// metrics, so /metrics and /slo over the farm registry see every
	// tenant's traffic under the standard names. All three are set before
	// the server accepts its first connection and immutable afterwards.
	rollup         *obs.Registry
	rollupRequests *obs.Counter
	rollupDispatch *obs.Histogram

	// activity, when non-nil, receives a unix-nano stamp per dispatched
	// request: the farm points it at the owning session's last-active
	// clock so the idle-eviction sweeper sees tenant activity without the
	// dispatch path knowing the farm exists. Set before serving,
	// immutable afterwards.
	activity *atomic.Int64

	// metrics aggregates across all connections: "requests",
	// per-opcode "requests.<OpName>" counters, the "dispatch"
	// service-time histogram, and mu's "lockwait.tree" histogram. The
	// span layer adds "trace.sampled" (dispatches picked for span
	// recording) and "trace.spans" (spans recorded). The pointer is
	// immutable after New; the registry itself is safe for concurrent
	// use.
	metrics *obs.Registry

	// requests and dispatchTime are metrics' per-request handles,
	// segments its per-read handle, and sampled, spans and dropped its
	// handles for sampled dispatches and dropped events, resolved in New.
	// Immutable afterwards.
	requests     *obs.Counter
	segments     *obs.Counter
	dispatchTime *obs.Histogram
	sampled      *obs.Counter
	spans        *obs.Counter
	dropped      *obs.Counter

	// tracer, when set, records a server.dispatch span (with the wait
	// for mu) for sampled requests. Atomic so SetTracer may race
	// dispatch.
	tracer atomic.Pointer[trace.Tracer]

	// render is the render pipeline's pre-resolved slice of the metrics
	// registry: tile damage/COW/snapshot counters and the per-primitive
	// service-time histograms. Immutable after New.
	render *renderMetrics
}

// gcontext is a server-side graphics context. Like every resource it is
// reached only through the server's resource table, so mu guards its
// fields.
type gcontext struct {
	foreground uint32
	background uint32
	lineWidth  int
	font       xproto.ID
}

// pixmap is a server-side off-screen drawable. The img pointer and the
// image's dimensions are immutable after CreatePixmap; the pixel
// contents are guarded by the server's mu.
type pixmap struct {
	img   *image // the pointer is immutable; pixel contents are guarded by mu
	bytes int64  // nominal quota cost (w·h·4 at create), immutable
}

// cursor is a server-side cursor: the shape it was created with.
type cursor struct {
	shape string
}

// property is a window property value.
type property struct {
	typ  xproto.Atom
	data []byte
}

// selection tracks ICCCM selection ownership.
type selection struct {
	owner *window
	time  uint32
}

// window is a server-side window. All fields are guarded by the
// server's mu (windows are reached only through the resource table or
// the tree itself).
type window struct {
	id          xproto.ID
	parent      *window
	children    []*window // bottom-to-top stacking order
	x, y        int
	w, h        int
	borderWidth int
	background  uint32
	border      uint32
	override    bool
	mapped      bool
	img         *image
	masks       map[*conn]uint32
	props       map[xproto.Atom]property
	owner       *conn
	cursor      *cursor
}

// conn is one client connection.
type conn struct {
	s      *Server
	rw     net.Conn
	done   chan struct{}
	seq    uint64
	once   sync.Once
	idBase uint32 // the base of c's resource-ID range; set before c's request loop starts

	// The output buffer, one per client as the X server keeps it:
	// handlers encode whole frames into it (push) and the writer
	// goroutine takes all of them for each Write (writeLoop). ready holds
	// a token for the writer while frames wait; taken holds one for a
	// requester waiting for room (waitRoom) once the writer has emptied
	// the buffer.
	outMu    sync.Mutex
	out      xproto.Writer // guarded by outMu
	frames   int           // guarded by outMu: the frames in out
	upgraded bool          // guarded by outMu: the v2 upgrade ack is in out or already written
	ready    chan struct{}
	taken    chan struct{}

	// Wire protocol v2 receive state (docs/pipelining.md, "Wire
	// protocol v2"): wireRx and the decode scratch are owned by the
	// request-loop goroutine exclusively and need no lock. They live and
	// die with the conn: session teardown (farm eviction, Server.Close)
	// severs the connection and drops them.
	wireRx bool
	rxSeg  []byte

	// rd decodes each request dispatch serves, reset for each one: every
	// Decode copies what it keeps. v2 segments' requests are served on
	// the request-loop goroutine too, so rd needs no lock.
	rd xproto.Reader

	// Span timing, owned by the request-loop goroutine: spanning is set
	// while a sampled request dispatches, and replied holds the time its
	// reply or error was handed to the writer, zero until then.
	spanning bool
	replied  time.Time

	// byOp holds each opcode's "requests.<OpName>" counter in the server
	// registry, resolved on the opcode's first request so the registry
	// gains no zero-valued rows; only the request-loop goroutine
	// touches it. Every opcode in the request table is below 256.
	byOp [256]*obs.Counter
}

// countOp bumps op's request counter in the server registry. An opcode
// with no row in the request table has no counter: opcodes are read off
// the wire, and a client must not be able to add registry names.
func (c *conn) countOp(op uint16) {
	if int(op) >= len(c.byOp) {
		return
	}
	ctr := c.byOp[op]
	if ctr == nil {
		rt, ok := xproto.LookupRequest(op)
		if !ok {
			return
		}
		ctr = c.s.metrics.Counter("requests." + rt.Name)
		c.byOp[op] = ctr
	}
	ctr.Inc()
}

// New creates a server with the given screen size.
func New(width, height int) *Server {
	s := &Server{
		width:      width,
		height:     height,
		res:        make(map[xproto.ID]any),
		atoms:      make(map[string]xproto.Atom),
		atomNames:  make(map[xproto.Atom]string),
		colorCells: make(map[string]uint32),
		selections: make(map[xproto.Atom]*selection),
		conns:      make(map[*conn]bool),
		metrics:    obs.NewRegistry(),
		start:      time.Now(),
		nextAtom:   100,
		nextIDBase: xproto.IDRange,
	}
	s.wireV2.Store(true)
	s.mu.Instrument(s.metrics.Histogram("lockwait.tree"))
	s.writeTimeout.Store(int64(DefaultWriteTimeout))
	s.render = newRenderMetrics(s.metrics)
	s.requests = s.metrics.Counter("requests")
	s.segments = s.metrics.Counter("segments")
	s.dispatchTime = s.metrics.Histogram("dispatch")
	s.sampled = s.metrics.Counter("trace.sampled")
	s.spans = s.metrics.Counter("trace.spans")
	s.dropped = s.metrics.Counter("dropped")
	for a, name := range xproto.PredefinedAtoms {
		s.atoms[name] = a
		s.atomNames[a] = name
	}
	s.root = &window{
		id:         1,
		w:          width,
		h:          height,
		background: 0x5f9ea0, // the classic root-weave stand-in
		mapped:     true,
		masks:      make(map[*conn]uint32),
		props:      make(map[xproto.Atom]property),
	}
	s.root.img = newFilledImage(width, height, s.root.background, s.render)
	s.res[1] = s.root
	s.pointerWin = s.root
	s.pointerX, s.pointerY = width/2, height/2
	return s
}

// Root returns the root window ID.
func (s *Server) Root() xproto.ID { return 1 }

// SetLatency sets the simulated IPC latency charged once per wire
// segment: each read from a client's connection, typically one flush,
// however many requests it carries (segmentReader).
func (s *Server) SetLatency(d time.Duration) { s.latency.Store(int64(d)) }

// LatencyModel once selected how SetLatency's cost was charged.
//
// Deprecated: the server has one model, per wire segment.
type LatencyModel int32

// LatencyPerSegment names the one latency model.
//
// Deprecated: there is no other model to select.
const LatencyPerSegment LatencyModel = 1

// SetLatencyModel does nothing.
//
// Deprecated: SetLatency always charges per wire segment.
func (s *Server) SetLatencyModel(LatencyModel) {}

// DefaultWriteTimeout bounds how long a stalled peer — one that stops
// reading its end of the connection — may block the server's writer
// before the connection is declared dead and closed.
const DefaultWriteTimeout = 10 * time.Second

// SetWriteTimeout changes the stalled-peer write bound. Zero disables
// the bound (writes may block forever — only sensible in tests). Each
// severed connection increments the server registry's "stalled"
// counter.
func (s *Server) SetWriteTimeout(d time.Duration) { s.writeTimeout.Store(int64(d)) }

// SetWireV2 sets whether the server accepts wire-protocol-v2 upgrades
// (the default). With false, every OpUpgradeWire is answered with a
// version-1 ack and clients fall back to v1 framing transparently —
// the knob the negotiation-matrix test and `xsimd -wire v1` use.
// Affects connections negotiated after the call.
func (s *Server) SetWireV2(on bool) { s.wireV2.Store(on) }

// Metrics returns the server-wide registry: "requests" and per-opcode
// "requests.<OpName>" counters, the "dispatch" histogram of request
// service times (decode + handle, excluding simulated latency), and the
// "lockwait.tree" histogram of waits for the display lock.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetTracer attaches (or, with nil, detaches) a span tracer. Give the
// server and its clients tracers with the same sampling interval and
// both sides record spans for the same requests — each connection's
// request sequence numbers advance in lockstep with the client's own
// numbering (see internal/obs/trace).
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// SetRollup attaches an aggregate registry (a farm's) that the dispatch
// path bumps alongside this server's own: the standard "requests"
// counter and "dispatch" histogram names, pre-resolved here so the hot
// path pays two atomic ops, not a map lookup. Quota denials roll up too
// (quota.go). Call before the server accepts its first connection.
func (s *Server) SetRollup(reg *obs.Registry) {
	s.rollup = reg
	s.rollupRequests = reg.Counter("requests")
	s.rollupDispatch = reg.Histogram("dispatch")
}

// setActivity points the per-request activity stamp at the given clock
// (the farm's per-session last-active time). Call before the server
// accepts its first connection.
func (s *Server) setActivity(clock *atomic.Int64) { s.activity = clock }

// now returns the server timestamp in milliseconds.
func (s *Server) now() uint32 {
	return uint32(time.Since(s.start) / time.Millisecond)
}

// Serve accepts connections on l until the listener is closed.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		go s.ServeConn(nc)
	}
}

// Listen starts serving on a TCP address and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.Serve(l)
	return l.Addr().String(), nil
}

// ConnectPipe creates an in-process connection to the server and returns
// the client end.
func (s *Server) ConnectPipe() net.Conn {
	client, server := net.Pipe()
	go s.ServeConn(server)
	return client
}

// Close shuts the server down, closing all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.close()
	}
}

// outQueueSlots bounds a connection's output buffer, in frames. An
// event another connection's request raises for a connection whose
// buffer is full is dropped (counted as "dropped"); a requester whose
// buffer is full waits for the writer after its request.
const outQueueSlots = 4096

// ServeConn runs the protocol on one established connection, blocking
// until it closes.
func (s *Server) ServeConn(nc net.Conn) {
	c := &conn{
		s:     s,
		rw:    nc,
		done:  make(chan struct{}),
		ready: make(chan struct{}, 1),
		taken: make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	base, ok := s.takeIDBase()
	if !ok {
		s.mu.Unlock()
		refuse(nc, "server: maximum number of clients reached: every block of resource IDs is in use")
		return
	}
	s.conns[c] = true
	c.idBase = base
	s.mu.Unlock()
	go c.writeLoop()

	// Connection setup block.
	setup := &xproto.SetupReply{
		ResourceIDBase: c.idBase,
		Root:           s.Root(),
		Width:          uint16(s.width),
		Height:         uint16(s.height),
	}
	c.push(xproto.KindReply, setup.Encode, true)

	// Request loop. Requests are read through a buffered reader over a
	// latency-charging wrapper: each underlying conn read (one wire
	// segment, typically one client flush) pays the simulated latency
	// once, however many requests it carries. The scratch buffer is
	// reused across requests (safe: every request Decode copies what it
	// retains — see ReadRequestFrame).
	br := bufio.NewReaderSize(&segmentReader{s: s, conn: nc, done: c.done}, 64<<10)
	var rbuf []byte
	upgradeSeen := false
loop:
	for {
		op, payload, err := xproto.ReadRequestFrame(br, rbuf)
		if err != nil {
			break
		}
		rbuf = payload
		switch op {
		case xproto.OpAttachSession:
			// The farm consumes the attach handshake before the request
			// loop ever starts (Farm.ServeConn); one arriving here means a
			// session-aware client attached a plain single-display server,
			// which is already the display it asked for. Consume the frame
			// without assigning it a sequence number — the client wrote it
			// before its Display existed and does not count it either, so
			// skipping keeps both sides' numbering in lockstep.
			continue
		case xproto.OpUpgradeWire:
			// The v2 upgrade follows the attach idiom: no sequence number
			// on either side (the client writes it before its Display
			// exists), answered out-of-band with a KindWireAck. It is
			// honoured once, before the first request; anywhere else it
			// is consumed and ignored, since a second ack would reach a
			// Display that no longer expects one.
			if !upgradeSeen && c.seq == 0 {
				s.handleUpgradeWire(c, payload)
			}
			upgradeSeen = true
			continue
		case xproto.OpWireSeg:
			// A v2 segment of batched requests. Decode failure is fatal:
			// the envelope checksum no longer vouches for the stream, so
			// sever rather than dispatch garbage.
			if err := s.serveWireSeg(c, payload); err != nil {
				s.metrics.Counter("wire.decode.errors").Inc()
				c.protoError("wire: %v", err)
				break loop
			}
			continue
		}
		s.serveRequest(c, op, payload)
	}
	c.close()
	s.cleanupConn(c)
}

// serveRequest runs the full per-request pipeline — sequence
// accounting, metrics, span sampling, dispatch and service-time
// histograms — for one decoded request frame, whether it arrived bare
// on the wire or inside a v2 segment. Inner frames of a segment
// therefore behave exactly like v1 requests, with identical sequence
// numbering (the lockstep span sampling relies on).
func (s *Server) serveRequest(c *conn, op uint16, payload []byte) {
	c.seq++
	// Counters are bumped before dispatch; timing wraps only decode +
	// handle, so the "dispatch" histogram measures true service time,
	// not the simulated IPC latency its segment paid.
	s.requests.Inc()
	c.countOp(op)
	if s.rollupRequests != nil {
		s.rollupRequests.Inc()
	}
	begin := time.Now()
	if a := s.activity; a != nil {
		a.Store(begin.UnixNano())
	}
	tr := s.tracer.Load()
	sampled := tr != nil && tr.Sampled(c.seq)
	c.spanning = sampled
	wait := s.dispatch(c, op, payload)
	elapsed := time.Since(begin)
	if sampled {
		// A sampled dispatch's span ends where its reply or error was
		// handed to the writer, so it nests inside the client's round
		// trip however late this goroutine runs again; a request that
		// sent neither ends it here. It carries the wait for the display
		// lock it paid, and no lock-wait arg when it paid none.
		dur := elapsed
		if !c.replied.IsZero() {
			dur = c.replied.Sub(begin)
		}
		c.spanning, c.replied = false, time.Time{}
		s.sampled.Inc()
		span := trace.Span{
			Seq: c.seq, Name: "server.dispatch", Side: "server",
			Op: xproto.OpName(op), Start: begin.UnixNano(), Dur: int64(dur),
		}
		if wait > 0 {
			span.Args = []trace.Arg{{Key: "lockwait.tree", Val: wait}}
		}
		tr.Record(span)
		s.spans.Inc()
	}
	s.dispatchTime.Observe(elapsed)
	if s.rollupDispatch != nil {
		s.rollupDispatch.Observe(elapsed)
	}
	c.waitRoom()
}

// wireWrapMin is the smallest outbound batch worth wrapping in a v2
// segment envelope: below it the envelope overhead exceeds any win, and
// the v2 client accepts unwrapped v1 frames on the same stream.
const wireWrapMin = 128

// handleUpgradeWire answers the OpUpgradeWire request. Like the attach
// handshake it carries no sequence number on either side. The ack
// ([u8 version]) lands behind the setup block that ServeConn already
// pushed, so the client always reads setup first, and push marks the
// connection upgraded as it appends the ack, so the batch that carries
// both still crosses in v1 framing.
func (s *Server) handleUpgradeWire(c *conn, payload []byte) {
	var req xproto.UpgradeWireReq
	r := xproto.NewReader(payload)
	req.Decode(r)
	accept := r.Err() == nil && req.Version >= 2 && s.wireV2.Load()
	ver := byte(1)
	if accept {
		ver = 2
		c.wireRx = true
	}
	c.push(xproto.KindWireAck, func(w *xproto.Writer) { w.PutU8(ver) }, true)
}

// serveWireSeg decodes one v2 segment and serves each v1 request frame
// inside it through the standard pipeline. Any error means the stream
// can no longer be trusted (checksum mismatch, torn framing) and the
// caller severs the connection — corruption degrades to a clean
// connection loss, never to a garbled request reaching a handler.
func (s *Server) serveWireSeg(c *conn, payload []byte) error {
	if !c.wireRx {
		return fmt.Errorf("v2 segment before a negotiated upgrade")
	}
	raw, scratch, err := xproto.DecodeSegmentPayload(payload, c.rxSeg)
	c.rxSeg = scratch
	if err != nil {
		return err
	}
	return xproto.WalkRequestFrames(raw, func(op uint16, pl []byte) error {
		if rt, _ := xproto.LookupRequest(op); rt.Handshake {
			// Handshake opcodes are pre-setup, outer-framing-only; nested
			// inside a segment they can only be stream damage.
			return fmt.Errorf("handshake opcode %s inside a v2 segment", rt.Name)
		}
		s.serveRequest(c, op, pl)
		return nil
	})
}

func (c *conn) close() {
	c.once.Do(func() {
		close(c.done)
		c.rw.Close()
	})
}

// segmentReader counts wire segments and charges the simulated
// latency: each successful read from the underlying connection is one
// segment (one client flush, up to the buffer size), so K pipelined
// requests in one flush pay the latency once. The sleep happens on the
// connection's own read goroutine with no server lock held, so
// concurrent clients overlap their latency, and it ends early when the
// connection closes, so a closed server leaves no goroutine sleeping.
type segmentReader struct {
	s     *Server
	conn  net.Conn
	done  <-chan struct{} // the connection's; nil never closes
	timer *time.Timer     // reused by sleep
	debt  time.Duration   // charges under sleepMin not yet slept, less credit (see charge)
}

// sleepMin is the shortest charge slept as it comes. time.Sleep does
// not go much below a millisecond on common hosts, so a shorter charge
// slept alone would cost about a millisecond whatever it states.
const sleepMin = time.Millisecond

func (sr *segmentReader) Read(p []byte) (int, error) {
	n, err := sr.conn.Read(p)
	if n > 0 {
		sr.s.segments.Inc()
		sr.charge(time.Duration(sr.s.latency.Load()))
	}
	return n, err
}

// charge pays one segment's latency d. A charge of sleepMin or more is
// slept in full. A shorter one is added to the connection's debt; once
// the debt reaches sleepMin it is slept, and the time the sleep ran
// over is credited against the next charges.
func (sr *segmentReader) charge(d time.Duration) {
	switch {
	case d <= 0:
		return
	case d >= sleepMin:
		sr.sleep(d)
		return
	}
	if sr.debt += d; sr.debt < sleepMin {
		return
	}
	start := time.Now()
	sr.sleep(sr.debt)
	sr.debt -= time.Since(start)
}

// sleep waits d, or until the connection closes. After a close the
// connection reads nothing more, so the timer is not reused.
func (sr *segmentReader) sleep(d time.Duration) {
	if sr.timer == nil {
		sr.timer = time.NewTimer(d)
	} else {
		sr.timer.Reset(d)
	}
	select {
	case <-sr.timer.C:
	case <-sr.done:
	}
}

// push encodes one frame of the given kind straight into c's output
// buffer, with encode appending its payload, and wakes the writer. own
// is set for c's own frames: the current request's reply, error or
// events, and the handshake frames. They are always appended, in the
// order they are produced. An event another connection's request
// raised for c is dropped instead, and counted as "dropped", when the
// buffer already holds outQueueSlots frames. encode runs with outMu
// held, so it must not block. Safe with s.mu held.
func (c *conn) push(kind byte, encode func(w *xproto.Writer), own bool) {
	c.outMu.Lock()
	if !own && c.frames >= outQueueSlots {
		c.outMu.Unlock()
		c.s.dropped.Inc()
		return
	}
	c.out.ServerFrame(kind, encode)
	c.frames++
	if kind == xproto.KindWireAck {
		// Batches taken after the one that carries the ack are wrapped.
		// The ack's one payload byte, the version, ends the buffer.
		out := c.out.Bytes()
		c.upgraded = out[len(out)-1] >= 2
	}
	c.outMu.Unlock()
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// waitRoom holds c's request loop while its output buffer is full,
// until the writer takes the buffer or the connection closes: X stops
// serving a client whose output is backed up. The request goroutine
// calls it after each request, with s.mu released; the writer's write
// deadline bounds the wait.
func (c *conn) waitRoom() {
	for {
		c.outMu.Lock()
		full := c.frames >= outQueueSlots
		c.outMu.Unlock()
		if !full {
			return
		}
		select {
		case <-c.taken:
		case <-c.done:
			return
		}
	}
}

// writeLoop is c's writer goroutine. It takes the whole output buffer
// for each Write, so a burst of replies and events crosses the wire as
// one segment (the mirror of the client's batched flush), and swaps in
// its emptied spare for the handlers to fill meanwhile. Each Write carries a
// deadline so a peer that stops reading cannot wedge the goroutine
// forever: on timeout the connection is counted as "stalled" and
// severed. After the batch that carries an accepting upgrade ack, every
// batch of at least wireWrapMin bytes is wrapped in a checksummed,
// compressed KindWireSeg envelope; smaller ones stay unwrapped, since a
// segment carries the same v1 frames and the v2 client accepts both
// framings on one stream.
func (c *conn) writeLoop() {
	s := c.s
	wireSegs := s.metrics.Counter("wire.segments.v2")
	wireRaw := s.metrics.Counter("wire.bytes.raw")
	wireWire := s.metrics.Counter("wire.bytes.wire")
	wireSkip := s.metrics.Counter("wire.compress.skipped")
	var spare xproto.Writer
	var seg []byte
	v2 := false
	for {
		select {
		case <-c.ready:
		case <-c.done:
			return
		}
		c.outMu.Lock()
		c.out, spare = spare, c.out
		c.frames = 0
		upgraded := c.upgraded
		c.outMu.Unlock()
		select {
		case c.taken <- struct{}{}:
		default:
		}
		batch := spare.Bytes()
		if len(batch) == 0 {
			continue // the frames this token announced went with the last batch
		}
		out := batch
		wireRaw.Add(uint64(len(batch)))
		if v2 && len(batch) >= wireWrapMin {
			var compressed bool
			seg, compressed = xproto.AppendWireSegServerFrame(seg[:0], batch)
			wireSegs.Inc()
			if !compressed {
				wireSkip.Inc()
			}
			out = seg
		}
		wireWire.Add(uint64(len(out)))
		if to := s.writeTimeout.Load(); to > 0 {
			c.rw.SetWriteDeadline(time.Now().Add(time.Duration(to)))
		}
		if _, err := c.rw.Write(out); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.metrics.Counter("stalled").Inc()
			}
			c.close()
			return
		}
		spare.Reset()
		v2 = upgraded
	}
}

// markReplied records, for a sampled request's span, when its first
// reply or error is handed to the writer.
func (c *conn) markReplied() {
	if c.spanning && c.replied.IsZero() {
		c.replied = time.Now()
	}
}

// reply sends a reply for the current request, with encode appending
// the reply body after the sequence number.
func (c *conn) reply(encode func(w *xproto.Writer)) {
	c.markReplied()
	c.push(xproto.KindReply, func(w *xproto.Writer) {
		w.PutU64(c.seq)
		encode(w)
	}, true)
}

// protoError sends an error message for the current request.
func (c *conn) protoError(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.markReplied()
	c.push(xproto.KindError, func(w *xproto.Writer) {
		w.PutU64(c.seq)
		w.PutString(msg)
	}, true)
}

// sendEvent delivers an event to c: always if c made the current
// request, else only while c's output buffer has room. Called with s.mu
// held.
func (s *Server) sendEvent(c *conn, ev *xproto.Event) {
	c.push(xproto.KindEvent, ev.Encode, c == s.requester)
}

// dispatch decodes and executes one request and returns how long it
// waited for s.mu. The handler runs with s.mu held, as in X's dispatch
// loop; decoding and screenshot composition run outside it.
func (s *Server) dispatch(c *conn, op uint16, payload []byte) (wait int64) {
	req := xproto.NewRequest(op)
	if req == nil {
		c.protoError("bad request opcode %d", op)
		return 0
	}
	r := &c.rd
	r.Reset(payload)
	req.Decode(r)
	if r.Err() != nil {
		c.protoError("malformed request %d: %v", op, r.Err())
		return 0
	}
	wait = s.mu.Lock()
	s.requester = c
	shot := s.handle(c, req)
	s.requester = nil
	s.mu.Unlock()
	if shot != nil {
		shot.reply(c)
	}
	return wait
}
