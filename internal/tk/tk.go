// Package tk implements the Tk toolkit intrinsics described in §3 of the
// paper: window path names, event dispatching (X events, timers, idle
// handlers and Tcl event bindings), resource and structure caches,
// geometry management with the packer, the option database, selection
// support, focus management, and the send command for inter-application
// communication. Widgets (internal/widget) are built on these intrinsics
// exactly as the paper's §4 describes: C code (here Go) for display and
// behaviour, Tcl commands for creation and manipulation.
package tk

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/obs/xtrace"
	"repro/internal/tcl"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// capitalize upper-cases the first ASCII letter of a name, forming the
// conventional class name from an application name.
func capitalize(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-'a'+'A') + s[1:]
	}
	return s
}

// Widget is the hook a widget implementation attaches to a Window. The
// intrinsics call into it for repainting and cleanup.
type Widget interface {
	// Redraw repaints the widget into its X window.
	Redraw()
	// Destroyed tells the widget its window is gone; it must release
	// resources and unregister its widget command.
	Destroyed()
}

// GeometryManager arranges the children ("slaves") it manages inside a
// window. Only one geometry manager controls a given window at a time
// (§3.4).
type GeometryManager interface {
	// Name identifies the manager ("pack").
	Name() string
	// SlaveRequest is called when a managed window changes its requested
	// size.
	SlaveRequest(slave *Window)
	// LostSlave is called when the slave is destroyed or taken over by
	// another manager.
	LostSlave(slave *Window)
}

// Window is the toolkit's per-window structure: the structure cache of
// §3.3 (geometry, hierarchy) plus widget and geometry-manager hooks.
type Window struct {
	App    *App
	Path   string // full path name, e.g. ".a.b"
	Name   string // last component, e.g. "b"
	Class  string // widget class, e.g. "Button"
	Parent *Window

	// Children in creation order.
	Children []*Window

	// XID names the server-side window. It is allocated when the Window
	// is, but the server learns of it only in MakeExist.
	XID xproto.ID

	// Actual geometry (cached structure information, §3.3).
	X, Y          int
	Width, Height int
	BorderWidth   int

	// Requested geometry, set by the widget via GeometryRequest and
	// consumed by geometry managers (§3.4).
	ReqWidth, ReqHeight int

	// InternalBorder is space the widget wants left around slaves packed
	// inside it.
	InternalBorder int

	Mapped    bool
	Destroyed bool
	TopLevel  bool

	// Widget hook (may be nil for plain windows).
	Widget Widget

	// Manager is the geometry manager currently controlling this window's
	// size/placement within its parent.
	Manager GeometryManager

	// exists says the X window has been created (MakeExist). Until then
	// geometry, event mask, background and override-redirect live only
	// in this record, and CreateWindow carries them.
	exists bool

	// needConfigNotify says the geometry changed before the window
	// existed, so no server ConfigureNotify reported it (Tk's
	// TK_NEED_CONFIG_NOTIFY).
	needConfigNotify bool

	// selectedMask accumulates the X event mask this client has selected.
	selectedMask uint32

	// background is the window's X background pixel.
	background uint32

	// overrideRedirect marks a top-level the window manager leaves alone.
	overrideRedirect bool

	// withdrawn says `wm withdraw` hid the window: Map leaves it unmapped
	// until `wm deiconify`, so a top-level withdrawn before its idle map
	// stays hidden, as in Tk.
	withdrawn bool

	// handlers are C-level (Go) event handlers: mask → funcs.
	handlers []evtHandler

	// history of recent device events for multi-event bindings
	// (<Escape>q, Double-Button-1).
	history []xproto.Event

	redrawPending bool
}

type evtHandler struct {
	mask uint32
	fn   func(ev *xproto.Event)
}

// App is one Tk application: a Tcl interpreter plus a display connection
// plus the window table. It corresponds to a single main window and name
// in the send registry.
type App struct {
	Interp *tcl.Interp
	Disp   *xclient.Display
	Name   string // registered application name (send target)
	Main   *Window

	// Tracer, when non-nil, is the wire tracer tapped into this
	// application's display connection (wish -trace); the tkstats
	// command exposes it.
	Tracer *xtrace.Tracer

	// Spans, when non-nil, is the request-span tracer shared with the
	// display connection (wish -spans): the toolkit adds tk.event spans
	// for sampled event dispatches, and "tkstats spans" exports the
	// whole ring as Chrome trace-event JSON.
	Spans *trace.Tracer

	// SendTimeout bounds how long Send waits for a peer to answer
	// before probing whether it is dead (and, if so, pruning it from
	// the registry). Defaults to DefaultSendTimeout; zero or negative
	// falls back to the default.
	SendTimeout time.Duration

	windows map[string]*Window
	xidMap  map[xproto.ID]*Window
	// dying holds the XIDs of destroyed windows whose X windows wait for
	// an ancestor's DestroyWindow request (destroyWindow).
	dying []xproto.ID

	bindings *bindingTable

	colorCache  map[string]uint32
	colorNames  map[uint32]string
	fontCache   map[string]*xclient.Font
	cursorCache map[string]xproto.ID
	bitmapCache map[string]*Bitmap
	gcCache     map[gcKey]xproto.ID

	options *optionDB
	packer  *Packer

	// Handles into the display registry for event dispatch, the queue
	// depths, sampled spans, completed and timed-out sends and the
	// resource caches' hit and miss counts, resolved in NewApp.
	eventsCtr    *obs.Counter
	dispatchHist *obs.Histogram
	timersDepth  *obs.Gauge
	idleDepth    *obs.Gauge
	spansCtr     *obs.Counter
	sendHist     *obs.Histogram
	sendTimeouts *obs.Counter
	colorStats   cacheStats
	fontStats    cacheStats
	cursorStats  cacheStats
	bitmapStats  cacheStats
	gcStats      cacheStats

	timers *timerQueue
	idle   []func()
	// idleRan counts the idle handlers taken off idle, so a RunIdle
	// knows where the handlers queued before it end.
	idleRan int
	posted  chan func()
	// configNotify holds windows owed a ConfigureNotify by MakeExist. It
	// is dispatched locally once the display's queue is empty.
	configNotify []*Window
	// evSpanSeq numbers dispatched events for span sampling (the tk side
	// has no protocol sequence, so it samples on its own counter).
	// Touched only on the event-loop goroutine.
	evSpanSeq uint64
	// quitFlag and destroyed are atomic because StartServing pumps the
	// event loop in a background goroutine: bindings fired there (e.g.
	// "destroy .", exit, Control-q handlers) set them while the main
	// goroutine polls Quitting.
	quitFlag atomic.Bool

	// Selection state.
	selOwner    *Window
	selLost     func(win *Window)
	selStatePtr *selState

	// Send state.
	commWin     xproto.ID
	sendSerial  int
	sendResults map[int]sendResult
	registered  bool

	// Atoms used by the toolkit, interned once.
	atomRegistry xproto.Atom
	atomSendCmd  xproto.Atom
	atomSendRes  xproto.Atom
	atomSelProp  xproto.Atom

	destroyed atomic.Bool
}

// cacheStats are one resource cache's hit and miss counters.
type cacheStats struct{ hits, misses *obs.Counter }

type sendResult struct {
	code   int
	result string
}

// gcKey identifies a shareable graphics context (§3.3: resources reused
// across widgets).
type gcKey struct {
	fg, bg    uint32
	lineWidth int
	font      xproto.ID
}

// Config carries the parameters for creating an App.
type Config struct {
	// Name is the application's name for the send registry (argv[0] in
	// real wish). Uniquified if already taken on the display.
	Name string
	// Class is the main window's class (defaults to the capitalized
	// name).
	Class string
	// Interp may be supplied to share an existing interpreter; otherwise
	// a new one is created.
	Interp *tcl.Interp
	// Trace, if non-nil, is a wire tracer already tapped into the
	// display connection; it becomes App.Tracer so tkstats can reach it.
	Trace *xtrace.Tracer
	// Spans, if non-nil, is a request-span tracer (normally the one also
	// attached to the display with SetTracer); it becomes App.Spans so
	// event dispatches are sampled and tkstats can export the ring.
	Spans *trace.Tracer
}

// NewApp creates a Tk application over an open display connection,
// creates its main window ".", registers all intrinsics Tcl commands and
// registers the application in the send registry.
func NewApp(d *xclient.Display, cfg Config) (*App, error) {
	if cfg.Name == "" {
		cfg.Name = "tk"
	}
	if cfg.Class == "" {
		cfg.Class = capitalize(cfg.Name)
	}
	in := cfg.Interp
	if in == nil {
		in = tcl.New()
	}
	app := &App{
		Interp:      in,
		Disp:        d,
		Tracer:      cfg.Trace,
		Spans:       cfg.Spans,
		SendTimeout: DefaultSendTimeout,
		windows:     make(map[string]*Window, 32),
		xidMap:      make(map[xproto.ID]*Window, 32),
		bindings:    newBindingTable(),
		colorCache:  make(map[string]uint32),
		colorNames:  make(map[uint32]string),
		fontCache:   make(map[string]*xclient.Font),
		cursorCache: make(map[string]xproto.ID),
		bitmapCache: make(map[string]*Bitmap),
		gcCache:     make(map[gcKey]xproto.ID),
		options:     newOptionDB(),
		timers:      newTimerQueue(),
		posted:      make(chan func(), 256),
		sendResults: make(map[int]sendResult),
	}

	m := d.Metrics()
	app.eventsCtr = m.Counter("tk.events")
	app.dispatchHist = m.Histogram("tk.dispatch")
	app.timersDepth = m.Gauge("tk.timers.depth")
	app.idleDepth = m.Gauge("tk.idle.depth")
	app.spansCtr = m.Counter("trace.spans")
	app.sendHist = m.Histogram("tk.send")
	app.sendTimeouts = m.Counter("tk.send.timeout")
	app.colorStats = cacheStats{m.Counter("tk.cache.color.hits"), m.Counter("tk.cache.color.misses")}
	app.fontStats = cacheStats{m.Counter("tk.cache.font.hits"), m.Counter("tk.cache.font.misses")}
	app.cursorStats = cacheStats{m.Counter("tk.cache.cursor.hits"), m.Counter("tk.cache.cursor.misses")}
	app.bitmapStats = cacheStats{m.Counter("tk.cache.bitmap.hits"), m.Counter("tk.cache.bitmap.misses")}
	app.gcStats = cacheStats{m.Counter("tk.cache.gc.hits"), m.Counter("tk.cache.gc.misses")}

	// Route the display's asynchronous errors (X errors for one-way
	// requests, malformed events) through the tkerror convention. The
	// handler fires on the client read loop, so hop to the event loop
	// through the posted queue; if the queue is full the application is
	// already wedged and the error stays visible in the display metrics.
	d.ErrorHandler = func(msg string) {
		select {
		case app.posted <- func() { app.BackgroundError("display", errors.New(msg)) }:
		default:
		}
	}

	// Intern the toolkit's atoms: all four are issued as one pipelined
	// flight (one wire segment, one latency charge) instead of four
	// serial round trips.
	ckRegistry := d.InternAtomAsync("TK_INTERP_REGISTRY")
	ckSendCmd := d.InternAtomAsync("TK_SEND_COMMAND")
	ckSendRes := d.InternAtomAsync("TK_SEND_RESULT")
	ckSelProp := d.InternAtomAsync("TK_SELECTION")
	var err error
	if app.atomRegistry, err = ckRegistry.Wait(); err != nil {
		return nil, err
	}
	app.atomSendCmd, _ = ckSendCmd.Wait()
	app.atomSendRes, _ = ckSendRes.Wait()
	app.atomSelProp, _ = ckSelProp.Wait()

	// The main window "." is a top-level child of the root, made and
	// mapped at once.
	main := &Window{
		App: app, Path: ".", Name: "", Class: cfg.Class, XID: d.NewID(),
		Width: 200, Height: 200, ReqWidth: 0, ReqHeight: 0,
		TopLevel: true, selectedMask: structureMask, background: 0xffffff,
	}
	app.windows["."] = main
	app.xidMap[main.XID] = main
	app.Main = main
	main.Map()

	// Comm window for send: an unmapped override-redirect child of root.
	app.commWin = d.CreateWindow(d.Root, -10, -10, 1, 1, 0, xclient.WindowAttributes{
		OverrideRedirect: true,
		EventMask:        xproto.PropertyChangeMask,
	})

	registerCommands(app)
	registerPacker(app)

	if err := app.registerName(cfg.Name); err != nil {
		return nil, err
	}
	in.ExitHandler = func(code int) {
		app.Destroy()
	}
	return app, nil
}

// structureMask is the event mask every toolkit window is created with:
// structure changes keep the cache of §3.3 current, and exposures drive
// redisplay.
const structureMask = xproto.StructureNotifyMask | xproto.ExposureMask

// Metrics returns the application's metrics registry. It is the
// display connection's registry, so protocol counters ("requests",
// "requests.<OpName>", "roundtrips", the "roundtrip" histogram) and
// toolkit metrics ("tk.events", "tk.dispatch", cache hit/miss
// counters, queue-depth gauges) share one namespace — what the
// tkstats command reports.
func (app *App) Metrics() *obs.Registry { return app.Disp.Metrics() }

// Quit asks the event loop to exit.
func (app *App) Quit() { app.quitFlag.Store(true) }

// Quitting reports whether Quit or Destroy has been called. Safe to
// call from any goroutine.
func (app *App) Quitting() bool { return app.quitFlag.Load() || app.destroyed.Load() }

// NameToWindow resolves a path name ("." or ".a.b") to its Window.
func (app *App) NameToWindow(path string) (*Window, error) {
	w, ok := app.windows[path]
	if !ok || w.Destroyed {
		return nil, fmt.Errorf("bad window path name %q", path)
	}
	return w, nil
}

// WindowExists reports whether path names a live window.
func (app *App) WindowExists(path string) bool {
	w, ok := app.windows[path]
	return ok && !w.Destroyed
}

// parsePath splits ".a.b" into parent path "." + name "a.b"'s last
// component. It validates the syntax of §3.1.
func parsePath(path string) (parent, name string, err error) {
	if path == "" || path[0] != '.' {
		return "", "", fmt.Errorf("bad window path name %q", path)
	}
	if path == "." {
		return "", "", fmt.Errorf("cannot create %q: it always exists", path)
	}
	i := strings.LastIndexByte(path, '.')
	name = path[i+1:]
	if name == "" || strings.Contains(name, ".") {
		return "", "", fmt.Errorf("bad window path name %q", path)
	}
	if i == 0 {
		parent = "."
	} else {
		parent = path[:i]
	}
	return parent, name, nil
}

// CreateWindow makes a new toolkit window at path with the given class,
// as a child of its path parent. Widgets call this from their creation
// commands.
func (app *App) CreateWindow(path, class string) (*Window, error) {
	return app.createWindow(path, class, false)
}

// CreateTopLevel makes a window at path whose X window is a child of the
// root (for toplevel widgets and menus), though its path parent is still
// the Tk window named by the path.
func (app *App) CreateTopLevel(path, class string) (*Window, error) {
	return app.createWindow(path, class, true)
}

func (app *App) createWindow(path, class string, top bool) (*Window, error) {
	parentPath, name, err := parsePath(path)
	if err != nil {
		return nil, err
	}
	if app.WindowExists(path) {
		return nil, fmt.Errorf("window name %q already exists in parent", path)
	}
	parent, err := app.NameToWindow(parentPath)
	if err != nil {
		return nil, fmt.Errorf("bad window path name %q", path)
	}
	// As Tk_CreateWindow, this only fills in the record: the X window is
	// made by MakeExist, when the toolkit first needs it.
	w := &Window{
		App: app, Path: path, Name: name, Class: class,
		Parent: parent, XID: app.Disp.NewID(), Width: 1, Height: 1, TopLevel: top,
		selectedMask: structureMask, background: 0xffffff,
	}
	parent.Children = append(parent.Children, w)
	app.windows[path] = w
	app.xidMap[w.XID] = w
	return w, nil
}

// DestroyWindow destroys a window and its descendants: Tcl widget
// commands are deleted, widgets notified, geometry managers informed, and
// the X windows destroyed.
func (app *App) DestroyWindow(w *Window) {
	app.destroyWindow(w, true)
}

// destroyWindow tears down w's subtree, children first. The server
// destroys X children with their parent, so as in Tk_DestroyWindow only
// the subtree's root and the top-levels in it (whose X parent is the
// root window) need a DestroyWindow request; sendReq says w is one. A
// window that never existed needs none. Each window's XID goes back to
// the display for reuse (FreeID) once nothing names it on the server:
// at once if the window never existed, else once the request that
// destroys its X window is queued. Until then it waits in app.dying,
// above the XIDs of the calls this one runs inside.
func (app *App) destroyWindow(w *Window, sendReq bool) {
	if w.Destroyed {
		return
	}
	mark := len(app.dying)
	// Children first (use a copy: destruction mutates the slice).
	children := append([]*Window(nil), w.Children...)
	for _, ch := range children {
		app.destroyWindow(ch, ch.TopLevel)
	}
	w.Destroyed = true
	w.Mapped = false

	// Run <Destroy> bindings before teardown, as Tk does.
	app.bindings.trigger(app, w, &xproto.Event{Type: xproto.DestroyNotify, Window: w.XID})

	if w.Manager != nil {
		w.Manager.LostSlave(w)
		w.Manager = nil
	}
	if packer := app.packerFor(w); packer != nil {
		packer.forgetMaster(w)
	}
	if w.Widget != nil {
		w.Widget.Destroyed()
		w.Widget = nil
	}
	if app.selOwner == w {
		app.selOwner = nil
	}
	if app.selStatePtr != nil {
		delete(app.selStatePtr.handlers, w)
	}
	app.bindings.deleteWindow(w.Path)
	if app.options.stackWin == w {
		app.options.dropStack()
	}
	delete(app.windows, w.Path)
	delete(app.xidMap, w.XID)
	if w.Parent != nil {
		if i := slices.Index(w.Parent.Children, w); i >= 0 {
			w.Parent.Children = slices.Delete(w.Parent.Children, i, i+1)
		}
	}
	switch {
	case !w.exists:
		app.Disp.FreeID(w.XID)
	case sendReq:
		app.Disp.DestroyWindow(w.XID)
		for _, id := range app.dying[mark:] {
			app.Disp.FreeID(id)
		}
		app.dying = app.dying[:mark]
	default:
		app.dying = append(app.dying, w.XID)
	}

	if w == app.Main {
		app.Destroy()
	}
}

// Destroy tears the whole application down: unregisters from the send
// registry, destroys the window tree and marks the interpreter dead.
func (app *App) Destroy() {
	if !app.destroyed.CompareAndSwap(false, true) {
		return
	}
	app.quitFlag.Store(true)
	app.unregisterName()
	if app.Main != nil && !app.Main.Destroyed {
		app.DestroyWindow(app.Main)
	}
	app.Disp.Flush()
}

// Eval evaluates a Tcl script in the application's interpreter.
func (app *App) Eval(script string) (string, error) {
	return app.Interp.Eval(script)
}

// MustEval evaluates a script and panics on error; for tests and
// examples.
func (app *App) MustEval(script string) string {
	res, err := app.Eval(script)
	if err != nil {
		panic(fmt.Sprintf("tk: script failed: %v\nscript: %s", err, script))
	}
	return res
}

// BackgroundError reports an error from an asynchronously executed Tcl
// command (an event binding, timer or send). If the application defines a
// tkerror procedure it is invoked at global level with the message (as in
// Tk); otherwise the error is printed to the interpreter's output.
func (app *App) BackgroundError(context string, err error) {
	if err == nil {
		return
	}
	if app.Interp.HasCommand("tkerror") {
		if _, herr := app.Interp.GlobalEval(tcl.FormatList([]string{"tkerror", err.Error()})); herr == nil {
			return
		}
	}
	msg := fmt.Sprintf("tk: background error in %s: %v\n", context, err)
	if app.Interp.Out != nil {
		app.Interp.Out.Write([]byte(msg))
	} else {
		fmt.Print(msg)
	}
}

// windowContaining returns the deepest mapped window of this application
// containing the root-coordinate point, or nil.
func (app *App) windowContaining(x, y int) *Window {
	var deepest *Window
	depth := -1
	for _, w := range app.windows {
		if w.Destroyed || !w.Mapped {
			continue
		}
		rx, ry := w.RootCoords()
		if x < rx || y < ry || x >= rx+w.Width || y >= ry+w.Height {
			continue
		}
		d := strings.Count(w.Path, ".")
		if w.Path == "." {
			d = 0
		}
		if d > depth {
			deepest, depth = w, d
		}
	}
	return deepest
}

// RootCoords returns a window's position in root coordinates using the
// cached structure information.
func (w *Window) RootCoords() (int, int) {
	x, y := 0, 0
	for cur := w; cur != nil; cur = cur.Parent {
		x += cur.X + cur.BorderWidth
		y += cur.Y + cur.BorderWidth
		if cur.TopLevel {
			break
		}
	}
	return x, y
}

// GeometryRequest records the size a widget wants for its window and
// notifies whoever is responsible for granting it: the window's geometry
// manager, or the toolkit's built-in top-level negotiation for ".".
func (w *Window) GeometryRequest(width, height int) {
	if width == w.ReqWidth && height == w.ReqHeight {
		return
	}
	w.ReqWidth, w.ReqHeight = width, height
	if w.Manager != nil {
		w.Manager.SlaveRequest(w)
		return
	}
	if w.TopLevel && !w.Destroyed {
		// Stand-in for the window manager: grant top-level requests.
		w.App.resizeWindow(w, w.X, w.Y, width, height, false)
	}
}

// resizeWindow applies a geometry decision to a window, updating the
// cache, and the server if the window exists.
func (app *App) resizeWindow(w *Window, x, y, width, height int, moveToo bool) {
	if width < 1 {
		width = 1
	}
	if height < 1 {
		height = 1
	}
	changed := width != w.Width || height != w.Height
	moved := moveToo && (x != w.X || y != w.Y)
	if !changed && !moved {
		return
	}
	w.Width, w.Height = width, height
	if moveToo {
		w.X, w.Y = x, y
	}
	switch {
	case !w.exists:
		w.needConfigNotify = true
	case moveToo:
		app.Disp.MoveResizeWindow(w.XID, x, y, width, height)
	default:
		app.Disp.ResizeWindow(w.XID, width, height)
	}
	if w.Widget != nil {
		w.ScheduleRedraw()
	}
	// A resized master needs its slaves re-laid-out.
	if packer := app.packerFor(w); packer != nil {
		packer.scheduleRepack(w)
	}
}

// MoveToplevel moves a top-level window to root coordinates x, y, as
// Tk_MoveToplevelWindow does. Before the window exists only the cache
// changes, and the position travels in its CreateWindow.
func (w *Window) MoveToplevel(x, y int) {
	w.App.resizeWindow(w, x, y, w.Width, w.Height, true)
}

// MakeExist creates the window's X window if it does not exist yet, as
// Tk_MakeWindowExist does: the parent first (a top-level's X parent is
// the root), then one CreateWindow carrying the geometry and attributes
// cached so far. Map calls it, and so does every request that names the
// window.
//
// X stacks siblings in creation order, but lazy windows reach the server
// in the order they are needed. So MakeExist raises every later-created
// sibling that already exists, in creation order, which puts w back in
// its creation-order place. That assumes existing siblings are still in
// creation order; raise and lower keep it true by making every sibling
// exist before they restack.
func (w *Window) MakeExist() {
	if w.exists || w.Destroyed {
		return
	}
	app := w.App
	xparent := app.Disp.Root
	if !w.TopLevel {
		w.Parent.MakeExist()
		xparent = w.Parent.XID
	}
	app.Disp.Request(&xproto.CreateWindowReq{
		Wid: w.XID, Parent: xparent,
		X: int16(w.X), Y: int16(w.Y),
		Width: uint16(w.Width), Height: uint16(w.Height), BorderWidth: uint16(w.BorderWidth),
		Background: w.background, EventMask: w.selectedMask, OverrideRedirect: w.overrideRedirect,
	})
	w.exists = true
	if !w.TopLevel {
		later := w.Parent.Children[slices.Index(w.Parent.Children, w)+1:]
		for _, sib := range later {
			if sib.exists && !sib.TopLevel {
				app.Disp.RaiseWindow(sib.XID)
			}
		}
	}
	if w.needConfigNotify {
		w.needConfigNotify = false
		app.configNotify = append(app.configNotify, w)
	}
}

// makeSiblingsExist makes w exist and, unless w is a top-level, every
// sibling too, in creation order, so a restack of w is one among windows
// the server already knows.
func (w *Window) makeSiblingsExist() {
	if w.TopLevel {
		w.MakeExist()
		return
	}
	for _, sib := range w.Parent.Children {
		if !sib.TopLevel {
			sib.MakeExist()
		}
	}
}

// Map makes the window viewable.
func (w *Window) Map() {
	if w.Mapped || w.Destroyed || w.withdrawn {
		return
	}
	w.MakeExist()
	w.Mapped = true
	w.App.Disp.MapWindow(w.XID)
}

// Unmap hides the window. A mapped window exists, so Unmap always names
// a window the server knows.
func (w *Window) Unmap() {
	if !w.Mapped || w.Destroyed {
		return
	}
	w.Mapped = false
	w.App.Disp.UnmapWindow(w.XID)
}

// ScheduleRedraw arranges for the widget to repaint at idle time,
// collapsing repeated damage into one repaint (a when-idle handler,
// §3.2). A window that is not viewable is not painted, as Tk's display
// procedures return early unless Tk_IsMapped: the server exposes it
// when it becomes viewable, and the Expose repaints it.
func (w *Window) ScheduleRedraw() {
	if w.redrawPending || w.Destroyed || w.Widget == nil || !w.viewable() {
		return
	}
	w.redrawPending = true
	w.App.DoWhenIdle(func() {
		w.redrawPending = false
		if !w.Destroyed && w.Widget != nil && w.viewable() {
			w.Widget.Redraw()
		}
	})
}

// viewable reports whether w and its ancestors up to its top-level are
// mapped.
func (w *Window) viewable() bool {
	for cur := w; cur != nil; cur = cur.Parent {
		if !cur.Mapped {
			return false
		}
		if cur.TopLevel {
			break
		}
	}
	return true
}

// AddEventHandler registers a Go-level handler for the events in mask on
// this window, extending the X selection as needed (§3.2).
func (w *Window) AddEventHandler(mask uint32, fn func(ev *xproto.Event)) {
	w.handlers = append(w.handlers, evtHandler{mask: mask, fn: fn})
	w.selectInput(mask)
}

// selectInput adds mask to the window's event selection, telling the
// server only if the window exists.
func (w *Window) selectInput(mask uint32) {
	if mask&^w.selectedMask == 0 {
		return
	}
	w.selectedMask |= mask
	if w.exists {
		w.App.Disp.SelectInput(w.XID, w.selectedMask)
	}
}

// SetBackground changes the window's X background pixel; an unchanged
// pixel, or a window that does not exist yet, sends nothing.
func (w *Window) SetBackground(pixel uint32) {
	if pixel == w.background {
		return
	}
	w.background = pixel
	if w.exists {
		w.App.Disp.SetWindowBackground(w.XID, pixel)
	}
}

// SetOverrideRedirect marks a top-level (a menu) as one the window
// manager leaves alone. Before the window exists the flag travels in its
// CreateWindow.
func (w *Window) SetOverrideRedirect(on bool) {
	w.overrideRedirect = on
	if w.exists {
		w.App.Disp.Request(&xproto.ChangeWindowAttributesReq{
			Window: w.XID, Mask: xproto.AttrOverride, OverrideRedirect: on,
		})
	}
}
