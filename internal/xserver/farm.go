package xserver

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/xproto"
)

// The display farm: one listener, many virtual displays. A Farm hosts N
// independent sessions — each a full *Server with its own root window,
// resource tables and metrics registry — and routes every incoming
// connection to the session named by its AttachSession handshake
// (docs/farm.md). The paper assumed one user per display; the farm is
// the serving model for many: admission control caps the session count,
// per-session quotas (quota.go) bound what each tenant may allocate,
// and an idle sweeper evicts sessions nobody has spoken to. Because a
// session is a whole Server, eviction is Server.Close + the ordinary
// collect-then-destroy connection cleanup: there is no code path by
// which tearing down one tenant can touch another's windows.

// DefaultMaxSessions is the admission cap when FarmOptions leaves
// MaxSessions zero.
const DefaultMaxSessions = 64

// attachTimeout bounds how long the farm waits for a new connection's
// first frame. Shorter than the client's 10 s setup deadline so a
// refused or confused client reads a clean error, not a timeout.
const attachTimeout = 5 * time.Second

// FarmOptions configures NewFarm. The zero value hosts up to
// DefaultMaxSessions unlimited 1024×768 sessions with no idle eviction.
type FarmOptions struct {
	Width, Height int           // per-session screen size (default 1024×768)
	MaxSessions   int           // admission cap (default DefaultMaxSessions)
	Quota         Quota         // per-session quota; zero fields = unlimited
	IdleEvict     time.Duration // evict sessions idle this long; 0 disables
	Configure     func(*Server) // optional hook run on each new session's server
}

// Session is one virtual display hosted by a Farm.
type Session struct {
	name    string
	srv     *Server
	created time.Time

	// lastActive is the session's idle clock: unix nanos of the most
	// recent attach, detach or dispatched request (the session server
	// stamps it per request via setActivity).
	lastActive atomic.Int64
	// conns counts live client connections attached to the session.
	conns atomic.Int64
}

// Name returns the session's name (the AttachSession string).
func (sess *Session) Name() string { return sess.name }

// Server returns the session's display server, for per-tenant
// introspection (Metrics, QuotaUsage).
func (sess *Session) Server() *Server { return sess.srv }

// Farm is a multi-tenant session multiplexer over Server.
//
// Its one mutex guards only the session registry and is never held
// while calling into a session's server (creation aside, which takes no
// locks): eviction and Close collect victims under sessMu and destroy
// them after releasing it — the same collect-then-destroy discipline as
// cleanupConn — so sessMu forms its own single-element chain in the
// package lock order.
//
// lock-order: sessMu
type Farm struct {
	width, height int
	maxSessions   int
	quota         Quota
	idleEvict     time.Duration
	configure     func(*Server)

	// metrics is the aggregate registry: farm.* lifecycle counters plus
	// the rolled-up "requests" counter and "dispatch" histogram every
	// session server bumps (SetRollup) — so statshttp's /metrics and
	// /slo over this one registry cover all tenants.
	metrics       *obs.Registry
	sessionsGauge *obs.Gauge
	connsGauge    *obs.Gauge
	admissions    *obs.Counter
	rejections    *obs.Counter
	evictions     *obs.Counter
	sweeps        *obs.Counter

	sessMu   obs.TimedMutex
	sessions map[string]*Session // guarded by sessMu
	listener net.Listener        // guarded by sessMu
	closed   bool                // guarded by sessMu

	stop    chan struct{} // closes to stop the sweeper
	swept   chan struct{} // closes when the sweeper exits
	sweeper bool          // whether a sweeper goroutine was started
}

// NewFarm creates a farm. If opts.IdleEvict is nonzero the idle sweeper
// starts immediately; Close stops it.
func NewFarm(opts FarmOptions) *Farm {
	if opts.Width <= 0 {
		opts.Width = 1024
	}
	if opts.Height <= 0 {
		opts.Height = 768
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	f := &Farm{
		width:       opts.Width,
		height:      opts.Height,
		maxSessions: opts.MaxSessions,
		quota:       opts.Quota,
		idleEvict:   opts.IdleEvict,
		configure:   opts.Configure,
		metrics:     obs.NewRegistry(),
		sessions:    make(map[string]*Session),
		stop:        make(chan struct{}),
		swept:       make(chan struct{}),
	}
	f.sessionsGauge = f.metrics.Gauge("farm.sessions")
	f.connsGauge = f.metrics.Gauge("farm.conns")
	f.admissions = f.metrics.Counter("farm.admissions")
	f.rejections = f.metrics.Counter("farm.rejections")
	f.evictions = f.metrics.Counter("farm.evictions")
	f.sweeps = f.metrics.Counter("farm.sweeps")
	f.sessMu.Instrument(f.metrics.Histogram("lockwait.sessions"))
	if f.idleEvict > 0 {
		f.sweeper = true
		go f.runSweeper()
	}
	return f
}

// Metrics returns the farm's aggregate registry: the farm.* lifecycle
// series, the cross-session "requests"/"dispatch" rollup, the
// "lockwait.sessions" histogram of registry-lock waits, and
// quota.denied.* totals. Serve it with statshttp and /metrics and /slo
// report the whole farm.
func (f *Farm) Metrics() *obs.Registry { return f.metrics }

// SessionCount returns the number of live sessions.
func (f *Farm) SessionCount() int {
	f.sessMu.Lock()
	defer f.sessMu.Unlock()
	return len(f.sessions)
}

// Lookup returns the named live session, if any.
func (f *Farm) Lookup(name string) (*Session, bool) {
	f.sessMu.Lock()
	defer f.sessMu.Unlock()
	sess, ok := f.sessions[name]
	return sess, ok
}

// attach admits a connection into the named session, creating the
// session if the cap allows. The session server is constructed under
// sessMu — construction takes no locks and must finish before a second
// attacher can race to the same name — but is never *called into* here.
func (f *Farm) attach(name string) (*Session, error) {
	now := time.Now()
	f.sessMu.Lock()
	defer f.sessMu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("farm: closed")
	}
	sess := f.sessions[name]
	if sess == nil {
		if len(f.sessions) >= f.maxSessions {
			f.rejections.Inc()
			return nil, fmt.Errorf("farm: admission denied for session %q: session cap %d reached", name, f.maxSessions)
		}
		srv := New(f.width, f.height)
		srv.SetQuota(f.quota)
		srv.SetRollup(f.metrics)
		sess = &Session{name: name, srv: srv, created: now}
		srv.setActivity(&sess.lastActive)
		if f.configure != nil {
			f.configure(srv)
		}
		f.sessions[name] = sess
		f.admissions.Inc()
		f.sessionsGauge.Set(int64(len(f.sessions)))
	}
	sess.conns.Add(1)
	sess.lastActive.Store(now.UnixNano())
	return sess, nil
}

// detach records a connection leaving its session. The session itself
// stays resident (a wish process reconnecting finds its windows intact)
// until the idle sweeper or an explicit Evict retires it.
func (f *Farm) detach(sess *Session) {
	sess.conns.Add(-1)
	sess.lastActive.Store(time.Now().UnixNano())
}

// refuse answers a connection the farm or a server will not serve: a
// clean pre-setup error frame (sequence 0), then close. xclient.Open
// decodes it into a clear error instead of a timeout.
func refuse(nc net.Conn, msg string) {
	var frame xproto.Writer
	frame.ServerFrame(xproto.KindError, func(w *xproto.Writer) {
		w.PutU64(0)
		w.PutString(msg)
	})
	if to := DefaultWriteTimeout; to > 0 {
		nc.SetWriteDeadline(time.Now().Add(to))
	}
	nc.Write(frame.Bytes())
	nc.Close()
}

// ServeConn runs the farm handshake on one connection, then hands it to
// its session's server for the rest of its life. The first client
// frame must be an AttachSession naming the session ("" is the default
// one), and must arrive within attachTimeout; anything else is refused.
func (f *Farm) ServeConn(nc net.Conn) {
	nc.SetReadDeadline(time.Now().Add(attachTimeout))
	op, payload, err := xproto.ReadRequestFrame(nc, nil)
	if err != nil {
		refuse(nc, fmt.Sprintf("farm: reading attach handshake: %v", err))
		return
	}
	nc.SetReadDeadline(time.Time{})
	if op != xproto.OpAttachSession {
		refuse(nc, fmt.Sprintf("farm: first frame is %s, want AttachSession", xproto.OpName(op)))
		return
	}
	var req xproto.AttachSessionReq
	r := xproto.NewReader(payload)
	if req.Decode(r); r.Err() != nil {
		refuse(nc, fmt.Sprintf("farm: malformed attach: %v", r.Err()))
		return
	}
	sess, err := f.attach(req.Session)
	if err != nil {
		refuse(nc, err.Error())
		return
	}
	f.connsGauge.Add(1)
	sess.srv.ServeConn(nc)
	f.connsGauge.Add(-1)
	f.detach(sess)
}

// Serve accepts connections on l until the listener is closed.
func (f *Farm) Serve(l net.Listener) {
	f.sessMu.Lock()
	if f.closed {
		f.sessMu.Unlock()
		l.Close()
		return
	}
	f.listener = l
	f.sessMu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		go f.ServeConn(nc)
	}
}

// Listen starts serving on a TCP address and returns the bound address.
func (f *Farm) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go f.Serve(l)
	return l.Addr().String(), nil
}

// ConnectPipe creates an in-process connection to the farm and returns
// the client end (pair with xclient.OpenSession).
func (f *Farm) ConnectPipe() net.Conn {
	client, server := net.Pipe()
	go f.ServeConn(server)
	return client
}

// Evict forcibly retires a session: it is removed from the registry
// and counted under sessMu, then — lock released — its server is
// closed, which severs its clients and runs the ordinary
// per-connection cleanup.
// Reports whether the session existed. Other tenants are untouchable
// by construction: the victim's server holds no other session's state.
func (f *Farm) Evict(name string) bool {
	f.sessMu.Lock()
	sess := f.sessions[name]
	if sess != nil {
		delete(f.sessions, name)
		f.sessionsGauge.Set(int64(len(f.sessions)))
		f.evictions.Inc()
	}
	f.sessMu.Unlock()
	if sess == nil {
		return false
	}
	sess.srv.Close()
	return true
}

// sweepIdle evicts every session idle past the deadline, including ones
// with parked connections (an idle wish holding its pipe open does not
// pin its session — its connection is severed with the session).
// Victims are collected and counted under sessMu, so no reader sees a
// session gone before its eviction is counted, and destroyed after the
// lock is released. Returns the number evicted.
func (f *Farm) sweepIdle(now time.Time) int {
	f.sweeps.Inc()
	cutoff := now.Add(-f.idleEvict).UnixNano()
	f.sessMu.Lock()
	var victims []*Session
	for name, sess := range f.sessions {
		if sess.lastActive.Load() <= cutoff {
			victims = append(victims, sess)
			delete(f.sessions, name)
		}
	}
	f.sessionsGauge.Set(int64(len(f.sessions)))
	f.evictions.Add(uint64(len(victims)))
	f.sessMu.Unlock()
	for _, sess := range victims {
		sess.srv.Close()
	}
	return len(victims)
}

// runSweeper ticks the idle sweep until Close, every quarter of the
// idle timeout, but not more often than every 10 ms nor less often
// than every 30 s.
func (f *Farm) runSweeper() {
	defer close(f.swept)
	t := time.NewTicker(min(max(f.idleEvict/4, 10*time.Millisecond), 30*time.Second))
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			f.sweepIdle(now)
		case <-f.stop:
			return
		}
	}
}

// Close shuts the farm down: the sweeper stops, the listener closes,
// and every session's server is closed (collected under sessMu,
// destroyed outside it).
func (f *Farm) Close() {
	f.sessMu.Lock()
	if f.closed {
		f.sessMu.Unlock()
		return
	}
	f.closed = true
	l := f.listener
	victims := make([]*Session, 0, len(f.sessions))
	for name, sess := range f.sessions {
		victims = append(victims, sess)
		delete(f.sessions, name)
	}
	f.sessionsGauge.Set(0)
	f.sessMu.Unlock()
	if f.sweeper {
		close(f.stop)
		<-f.swept
	}
	if l != nil {
		l.Close()
	}
	for _, sess := range victims {
		sess.srv.Close()
	}
}
