// Package core assembles the full system of the paper: the Tcl
// interpreter (internal/tcl), a display connection (internal/xclient,
// against a real or in-process simulated server from internal/xserver),
// the Tk intrinsics (internal/tk) and the widget set (internal/widget).
// It is what wish, the examples, the integration tests and the benchmark
// harness use: one call builds an application with every Tcl command
// registered, ready for scripts like the paper's Figure 9 browser.
package core

import (
	"fmt"
	"net"
	"os"

	"repro/internal/obs/trace"
	"repro/internal/obs/xtrace"
	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/widget"
	"repro/internal/xclient"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// traceDepth is how many decoded protocol lines a -trace tracer
// retains: enough for a whole interactive session's recent history
// without unbounded growth.
const traceDepth = 4096

// spanDepth is how many request spans a -spans tracer retains. A
// sampled request produces a handful of spans, so this covers the last
// ~2000 sampled requests.
const spanDepth = 8192

// Options configures NewApp.
type Options struct {
	// Name is the application's name in the send registry.
	Name string
	// Display is a TCP address of a display server (cmd/xsimd). Empty
	// means "create a private in-process server".
	Display string
	// Session names the virtual display to attach when Display points at
	// a session farm (xsimd -sessions, docs/farm.md); empty selects the
	// farm's default session. A plain single-display server ignores the
	// attach, so setting it is always safe. Unused for private servers.
	Session string
	// ScreenWidth/ScreenHeight size the private server's screen.
	ScreenWidth, ScreenHeight int
	// Interp optionally supplies an existing interpreter.
	Interp *tcl.Interp
	// Trace attaches a wire tracer to the display connection (wish
	// -trace); the trace is readable via App.Tracer and the tkstats
	// Tcl command.
	Trace bool
	// SpanInterval, when positive, enables request-span tracing (wish
	// -spans): one request in SpanInterval is sampled into App.Spans.
	// With a private server the same tracer is attached server-side, so
	// each sampled request carries both its client and server spans;
	// against a shared display only the client half is recorded (start
	// the server with its own tracer — xsimd -span-interval — for the
	// other half).
	SpanInterval int
	// WireV2 negotiates the v2 wire protocol (checksummed, compressed
	// segments of v1 frames with latency-adaptive batching; wish -wire
	// v2).
	WireV2 bool
}

// App is a complete Tk application plus the infrastructure it runs on.
type App struct {
	*tk.App
	Server *xserver.Server // non-nil when the server is private
}

// NewApp builds an application: server (private unless Options.Display
// points at a shared one), display connection, interpreter, intrinsics
// and widgets.
func NewApp(opts Options) (*App, error) {
	if opts.Name == "" {
		opts.Name = "tk"
	}
	if opts.ScreenWidth == 0 {
		opts.ScreenWidth = 1024
	}
	if opts.ScreenHeight == 0 {
		opts.ScreenHeight = 768
	}
	var (
		conn net.Conn
		srv  *xserver.Server
		cfg  xclient.Config
		err  error
	)
	if opts.Display != "" {
		conn, err = net.Dial("tcp", opts.Display)
		if err != nil {
			return nil, fmt.Errorf("cannot connect to display %q: %w", opts.Display, err)
		}
		// Remote displays get the session handshake (harmless when the
		// server is a plain single display); the wire tracer records the
		// attach frame, so a -trace log shows it.
		cfg.Session, cfg.Attach = opts.Session, true
	} else {
		srv = xserver.New(opts.ScreenWidth, opts.ScreenHeight)
		conn = srv.ConnectPipe()
	}
	if opts.Trace {
		cfg.Trace = xtrace.New(traceDepth)
	}
	if opts.WireV2 {
		cfg.Wire = xclient.WireV2
	}
	var spans *trace.Tracer
	if opts.SpanInterval > 0 {
		spans = trace.New(spanDepth, opts.SpanInterval)
		if srv != nil {
			srv.SetTracer(spans)
		}
	}
	d, err := xclient.OpenWith(conn, cfg)
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		return nil, err
	}
	if spans != nil {
		d.SetTracer(spans)
	}
	tkApp, err := tk.NewApp(d, tk.Config{Name: opts.Name, Interp: opts.Interp, Spans: spans})
	if err != nil {
		d.Close()
		if srv != nil {
			srv.Close()
		}
		return nil, err
	}
	widget.Register(tkApp)
	return &App{App: tkApp, Server: srv}, nil
}

// NewAppOnServer builds an application on an existing in-process server
// (several applications sharing one display, for send/selection work).
func NewAppOnServer(srv *xserver.Server, name string, interp *tcl.Interp) (*App, error) {
	d, err := xclient.Open(srv.ConnectPipe())
	if err != nil {
		return nil, err
	}
	tkApp, err := tk.NewApp(d, tk.Config{Name: name, Interp: interp})
	if err != nil {
		d.Close()
		return nil, err
	}
	widget.Register(tkApp)
	return &App{App: tkApp}, nil
}

// Close tears the application down, including the private server if one
// was created.
func (a *App) Close() {
	a.App.Destroy()
	a.App.Disp.Close()
	if a.Server != nil {
		a.Server.Close()
	}
}

// ScreenshotPPM captures a window (or the whole screen with path "")
// and writes it to filename as a binary PPM image — how this repo
// regenerates the paper's Figure 10 screen dump.
func (a *App) ScreenshotPPM(path, filename string) error {
	win := xproto.None
	if path != "" {
		w, err := a.NameToWindow(path)
		if err != nil {
			return err
		}
		w.MakeExist()
		win = w.XID
	}
	shot, err := a.Disp.Screenshot(win)
	if err != nil {
		return err
	}
	f, err := os.Create(filename)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "P6\n%d %d\n255\n", shot.Width, shot.Height); err != nil {
		return err
	}
	_, err = f.Write(shot.Pixels)
	return err
}
