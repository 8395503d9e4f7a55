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
	windows    map[xproto.ID]*window      // guarded by mu
	pixmaps    map[xproto.ID]*pixmap      // guarded by mu
	gcs        map[xproto.ID]*gcontext    // guarded by mu
	cursors    map[xproto.ID]string       // guarded by mu
	fonts      map[xproto.ID]*font        // guarded by mu
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
	nextIDBase uint32         // guarded by mu: the next connection's resource-ID range base

	latency      atomic.Int64 // nanoseconds per request (or per segment)
	latModel     atomic.Int32 // LatencyModel selecting how latency is charged
	writeTimeout atomic.Int64 // nanoseconds a stalled peer may block a write
	wireV2       atomic.Bool  // accept wire-protocol-v2 upgrades (SetWireV2)
	start        time.Time    // immutable after New

	// Resource quota (SetQuota, docs/farm.md): allocating handlers
	// reserve against the limit, and every free path (FreeGC/FreePixmap,
	// DestroyWindow, cleanupConn's sweeps) releases what the allocation
	// reserved. A zero limit means unlimited. quota is set before the
	// server accepts its first connection and immutable afterwards.
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

	// requests and dispatchTime are metrics' per-request handles, and
	// sampled, spans and dropped its handles for sampled dispatches and
	// dropped events, resolved in New. Immutable afterwards.
	requests     *obs.Counter
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
// reached only through the server's tables, so mu guards its fields.
type gcontext struct {
	foreground uint32
	background uint32
	lineWidth  int
	font       xproto.ID
	owner      *conn
}

// pixmap is a server-side off-screen drawable. The img pointer and the
// image's dimensions are immutable after CreatePixmap; the pixel
// contents are guarded by the server's mu.
type pixmap struct {
	img   *image // the pointer is immutable; pixel contents are guarded by mu
	bytes int64  // nominal quota cost (w·h·4 at create), immutable
	owner *conn  // creating connection, immutable; cleanupConn sweeps by it
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
// server's mu (windows are reached only through Server.windows or the
// tree itself).
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
	cursor      string
}

// conn is one client connection.
type conn struct {
	s    *Server
	rw   net.Conn
	done chan struct{}
	seq  uint64
	once sync.Once

	// The output buffer, one per client as the X server keeps it:
	// handlers append whole frames (push) and the writer goroutine takes
	// all of them for each Write (writeLoop). ready holds a token for the
	// writer while frames wait; taken holds one for a requester waiting
	// for room (waitRoom) once the writer has emptied the buffer.
	outMu    sync.Mutex
	out      []byte // guarded by outMu
	frames   int    // guarded by outMu: the frames in out
	upgraded bool   // guarded by outMu: the v2 upgrade ack is in out or already written
	ready    chan struct{}
	taken    chan struct{}

	// Wire protocol v2 receive state (docs/pipelining.md, "Wire
	// protocol v2"): wireRx and the decode scratch are owned by the
	// request-loop goroutine exclusively and need no lock. They live and
	// die with the conn: session teardown (farm eviction, Server.Close)
	// severs the connection and drops them.
	wireRx bool
	rxSeg  []byte

	// byOp holds each opcode's "requests.<OpName>" counter in the server
	// registry, resolved on the opcode's first request so the registry
	// gains no zero-valued rows; only the request-loop goroutine
	// touches it.
	byOp [256]*obs.Counter
}

// countOp bumps op's request counter in the server registry.
func (c *conn) countOp(op uint16) {
	if int(op) >= len(c.byOp) {
		// Opcodes are read off the wire, so an out-of-table one is
		// counted by name rather than trusted as an index.
		c.s.metrics.Counter("requests." + xproto.OpName(op)).Inc()
		return
	}
	if c.byOp[op] == nil {
		c.byOp[op] = c.s.metrics.Counter("requests." + xproto.OpName(op))
	}
	c.byOp[op].Inc()
}

// New creates a server with the given screen size.
func New(width, height int) *Server {
	s := &Server{
		width:      width,
		height:     height,
		windows:    make(map[xproto.ID]*window),
		pixmaps:    make(map[xproto.ID]*pixmap),
		gcs:        make(map[xproto.ID]*gcontext),
		cursors:    make(map[xproto.ID]string),
		fonts:      make(map[xproto.ID]*font),
		atoms:      make(map[string]xproto.Atom),
		atomNames:  make(map[xproto.Atom]string),
		colorCells: make(map[string]uint32),
		selections: make(map[xproto.Atom]*selection),
		conns:      make(map[*conn]bool),
		metrics:    obs.NewRegistry(),
		start:      time.Now(),
		nextAtom:   100,
		nextIDBase: 0x00200000,
	}
	s.wireV2.Store(true)
	s.mu.Instrument(s.metrics.Histogram("lockwait.tree"))
	s.writeTimeout.Store(int64(DefaultWriteTimeout))
	s.render = newRenderMetrics(s.metrics)
	s.requests = s.metrics.Counter("requests")
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
	s.windows[1] = s.root
	s.pointerWin = s.root
	s.pointerX, s.pointerY = width/2, height/2
	return s
}

// Root returns the root window ID.
func (s *Server) Root() xproto.ID { return 1 }

// LatencyModel selects how the simulated IPC latency is charged.
type LatencyModel int32

const (
	// LatencyPerRequest charges the latency once per request, however
	// the requests arrive — the historical default, and what the
	// EXPERIMENTS.md Table II numbers use. It models a client that
	// performs a full round trip for every request.
	LatencyPerRequest LatencyModel = iota
	// LatencyPerSegment charges the latency once per wire read: a flush
	// of K pipelined requests arrives as one segment and pays the
	// latency once, not K times — the payoff the XCB cookie model (and
	// this client's SendWithReply) exists to collect.
	LatencyPerSegment
)

// SetLatency sets the simulated IPC latency applied to every request
// (or, under LatencyPerSegment, every wire segment).
func (s *Server) SetLatency(d time.Duration) { s.latency.Store(int64(d)) }

// SetLatencyModel selects how SetLatency's cost is charged. The default
// is LatencyPerRequest.
func (s *Server) SetLatencyModel(m LatencyModel) { s.latModel.Store(int32(m)) }

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
	s.conns[c] = true
	base := s.nextIDBase
	s.nextIDBase += 0x00200000
	s.mu.Unlock()
	go c.writeLoop()

	// Connection setup block.
	setup := &xproto.SetupReply{
		ResourceIDBase: base,
		Root:           s.Root(),
		Width:          uint16(s.width),
		Height:         uint16(s.height),
	}
	w := xproto.AcquireWriter()
	setup.Encode(w)
	c.push(xproto.KindReply, w.Bytes(), true)
	xproto.ReleaseWriter(w)

	// Request loop. Requests are read through a buffered reader over a
	// latency-charging wrapper: under LatencyPerSegment each underlying
	// conn read (one wire segment, typically one client flush) pays the
	// simulated latency once, however many requests it carries; under
	// LatencyPerRequest the historical per-request sleep below applies.
	// The payload scratch buffer is reused across requests (safe: every
	// request Decode copies what it retains — see ReadRequestFrameInto).
	br := bufio.NewReaderSize(&segmentReader{s: s, conn: nc}, 64<<10)
	var rbuf []byte
	upgradeSeen := false
loop:
	for {
		op, payload, err := xproto.ReadRequestFrameInto(br, rbuf)
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

// serveRequest runs the full per-request pipeline — simulated
// per-request latency, sequence accounting, metrics, span sampling,
// dispatch and service-time histograms — for one decoded request frame,
// whether it arrived bare on the wire or inside a v2 segment. Inner
// frames of a segment therefore behave exactly like v1 requests:
// identical sequence numbering (the lockstep span sampling relies on)
// and identical LatencyPerRequest semantics.
func (s *Server) serveRequest(c *conn, op uint16, payload []byte) {
	if s.latModel.Load() == int32(LatencyPerRequest) {
		if lat := s.latency.Load(); lat > 0 {
			time.Sleep(time.Duration(lat))
		}
	}
	c.seq++
	// Counters are bumped before dispatch; timing wraps only decode +
	// handle, so the "dispatch" histogram measures true service time,
	// not the simulated IPC latency above.
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
	wait := s.dispatch(c, op, payload)
	elapsed := time.Since(begin)
	if sampled {
		// A sampled dispatch's span carries the wait for the display
		// lock it paid, and no lock-wait arg when it paid none.
		s.sampled.Inc()
		span := trace.Span{
			Seq: c.seq, Name: "server.dispatch", Side: "server",
			Op: xproto.OpName(op), Start: begin.UnixNano(), Dur: int64(elapsed),
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
	c.push(xproto.KindWireAck, []byte{ver}, true)
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
		switch op {
		case xproto.OpAttachSession, xproto.OpUpgradeWire, xproto.OpWireSeg:
			// Handshake opcodes are pre-setup, outer-framing-only; nested
			// inside a segment they can only be stream damage.
			return fmt.Errorf("handshake opcode %s inside a v2 segment", xproto.OpName(op))
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

// segmentReader counts wire segments and charges the per-segment
// simulated latency: each successful read from the underlying
// connection is one segment (one client flush, up to the buffer size),
// so K pipelined requests in one flush pay the latency once. The sleep
// happens on the connection's own read goroutine with no server lock
// held, so concurrent clients overlap their latency.
type segmentReader struct {
	s    *Server
	conn net.Conn
}

func (sr *segmentReader) Read(p []byte) (int, error) {
	n, err := sr.conn.Read(p)
	if n > 0 {
		sr.s.metrics.Counter("segments").Inc()
		if sr.s.latModel.Load() == int32(LatencyPerSegment) {
			if lat := sr.s.latency.Load(); lat > 0 {
				time.Sleep(time.Duration(lat))
			}
		}
	}
	return n, err
}

// push appends one frame to c's output buffer and wakes the writer. own
// is set for c's own frames: the current request's reply, error or
// events, and the handshake frames. They are always appended, in the
// order they are produced. An event another connection's request
// raised for c is dropped instead, and counted as "dropped", when the
// buffer already holds outQueueSlots frames. Safe with s.mu held.
func (c *conn) push(kind byte, payload []byte, own bool) {
	c.outMu.Lock()
	if !own && c.frames >= outQueueSlots {
		c.outMu.Unlock()
		c.s.dropped.Inc()
		return
	}
	n := len(payload)
	c.out = append(c.out, kind, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	c.out = append(c.out, payload...)
	c.frames++
	if kind == xproto.KindWireAck {
		// Batches taken after the one that carries the ack are wrapped.
		c.upgraded = payload[0] >= 2
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
// one segment (the mirror of the client's batched flush), and leaves its
// spare buffer for the handlers to fill meanwhile. Each Write carries a
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
	var spare, seg []byte
	v2 := false
	for {
		select {
		case <-c.ready:
		case <-c.done:
			return
		}
		c.outMu.Lock()
		batch := c.out
		c.out, c.frames = spare[:0], 0
		upgraded := c.upgraded
		c.outMu.Unlock()
		select {
		case c.taken <- struct{}{}:
		default:
		}
		spare = batch
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
		v2 = upgraded
	}
}

// reply sends a reply for the current request. The Writer is pooled:
// push copies the encoded bytes before the writer is released, so the
// hot reply path allocates nothing.
func (c *conn) reply(encode func(w *xproto.Writer)) {
	w := xproto.AcquireWriter()
	w.PutU64(c.seq)
	encode(w)
	c.push(xproto.KindReply, w.Bytes(), true)
	xproto.ReleaseWriter(w)
}

// protoError sends an error message for the current request.
func (c *conn) protoError(format string, args ...any) {
	w := xproto.AcquireWriter()
	w.PutU64(c.seq)
	w.PutString(fmt.Sprintf(format, args...))
	c.push(xproto.KindError, w.Bytes(), true)
	xproto.ReleaseWriter(w)
}

// sendEvent delivers an event to c: always if c made the current
// request, else only while c's output buffer has room. Called with s.mu
// held.
func (s *Server) sendEvent(c *conn, ev *xproto.Event) {
	w := xproto.AcquireWriter()
	ev.Encode(w)
	c.push(xproto.KindEvent, w.Bytes(), c == s.requester)
	xproto.ReleaseWriter(w)
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
	r := xproto.NewReader(payload)
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

// cleanupConn releases all resources owned by a departed client: its
// windows are destroyed (as X does), its GCs and pixmaps freed, its
// event-mask entries removed, and its selections cleared. Every release
// returns its quota reservation, so after the last connection of a
// session disconnects QuotaUsage reports zero across the board — the
// reconciliation invariant the farm bench asserts on teardown.
func (s *Server) cleanupConn(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	// Collect first, destroy second: destroyWindow mutates s.windows
	// (and detaches whole subtrees), so destroying while ranging over
	// the map would visit it mid-mutation. Top-level windows go first
	// (X semantics: the visible tree comes down before orphans deeper
	// in other clients' trees); the liveness re-check skips windows an
	// earlier destroy already took down with their ancestor.
	var topLevel, nested []*window
	for _, w := range s.windows {
		if w.owner != c || w == s.root {
			continue
		}
		if w.parent == s.root {
			topLevel = append(topLevel, w)
		} else {
			nested = append(nested, w)
		}
	}
	for _, w := range append(topLevel, nested...) {
		if s.windows[w.id] == w {
			s.destroyWindow(w)
		}
	}
	for _, w := range s.windows {
		delete(w.masks, c)
	}
	for sel, o := range s.selections {
		if o.owner != nil && o.owner.owner == c {
			delete(s.selections, sel)
		}
	}
	for id, gc := range s.gcs {
		if gc.owner == c {
			delete(s.gcs, id)
			s.usedGCs--
		}
	}
	// Pixmaps are per-client resources too: sweeping them here (by the
	// owner recorded at CreatePixmap) both releases their quota bytes and
	// frees their backing tiles when a client departs, instead of letting
	// orphaned pixmaps accumulate for the life of the server.
	for id, p := range s.pixmaps {
		if p.owner == c {
			delete(s.pixmaps, id)
			s.usedPixmapBytes -= p.bytes
		}
	}
}
