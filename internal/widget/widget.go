// Package widget implements Tk's Motif-compatible widget set (§4 and §7
// of the paper): frames, labels, buttons, check buttons, radio buttons,
// messages, listboxes, scrollbars, scales, entries and menus. Each widget
// is display + behaviour code in Go built on the internal/tk intrinsics,
// plus two kinds of Tcl commands: a class creation command ("button
// .hello -bg Red ...") and a per-widget command named after the window
// (".hello flash", ".hello configure -bg PalePink1").
package widget

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// Default Motif-era colors.
const (
	DefBackground       = "Bisque1"
	DefActiveBackground = "Bisque2"
	DefForeground       = "Black"
	DefSelectBackground = "LightSteelBlue"
	DefFont             = "6x13"
)

// A class is one widget-creation command: its name, the procedure
// that creates a widget with rows as its command's subcommand rows, and
// the function that returns those rows, their procedures bound to app.
type class struct {
	name   string
	create func(app *tk.App, args []string, rows []tcl.Row) (string, error)
	rows   func(app *tk.App) []tcl.Row
}

// classes lists the widget-creation commands, sorted by name.
var classes = []class{
	{"button", createButton(kindButton), buttonRows(kindButton)},
	{"canvas", createCanvas, canvasRows},
	{"checkbutton", createButton(kindCheck), buttonRows(kindCheck)},
	{"entry", createEntry, entryRows},
	{"frame", createFrame(false), configureOnly},
	{"label", createButton(kindLabel), buttonRows(kindLabel)},
	{"listbox", createListbox, listboxRows},
	{"menu", createMenu, menuRows},
	{"menubutton", createMenubutton, menubuttonRows},
	{"message", createMessage, configureOnly},
	{"radiobutton", createButton(kindRadio), buttonRows(kindRadio)},
	{"scale", createScale, scaleRows},
	{"scrollbar", createScrollbar, scrollbarRows},
	{"text", createText, textRows},
	{"toplevel", createFrame(true), configureOnly},
}

// commands returns the rows of the widget-creation commands, sorted by
// name, their procedures bound to app. A creation command builds its
// class's subcommand rows when it first runs, so an application holds
// the rows of the classes it has made widgets of, one copy per class.
func commands(app *tk.App) []tcl.Row {
	rows := make([]tcl.Row, len(classes))
	for i := range classes {
		c := &classes[i]
		var subs []tcl.Row
		rows[i] = tcl.Row{Name: c.name, Min: 1, Max: -1, Usage: "pathName ?options?",
			Fn: func(_ *tcl.Interp, args []string) (string, error) {
				if subs == nil {
					subs = c.rows(app)
				}
				return c.create(app, args, subs)
			}}
	}
	return rows
}

// Commands returns the rows of the widget-creation commands Register
// installs. It needs no application and exists so tools such as
// cmd/tkcheck can read the command set statically.
func Commands() []tcl.Row { return commands(nil) }

// Instances returns, by creation command, the row of the command each
// widget it creates gets, named after the creation command. It needs
// no application and exists so tools such as cmd/tkcheck can check a
// widget's commands statically.
func Instances() map[string]tcl.Row {
	rows := make(map[string]tcl.Row, len(classes))
	for _, c := range classes {
		rows[c.name] = instance(c.name, c.rows(nil))
	}
	return rows
}

// instance returns the row of the command of the widget called path:
// its first argument names one of the subcommand rows subs.
func instance(path string, subs []tcl.Row) tcl.Row {
	return tcl.Row{Name: path, Min: 1, Max: -1, Usage: "option ?arg ...?", Subs: subs}
}

// Register installs every widget-creation command in an application's
// interpreter. core.NewApp calls this; tests may call it directly.
func Register(app *tk.App) {
	app.Interp.Define(commands(app)...)
}

// base carries the state shared by all widget classes.
type base struct {
	app *tk.App
	win *tk.Window
	cv  *tk.ConfigValues

	// Resolved display resources.
	font *xclient.Font
	bg   uint32
	fg   uint32

	// link is the trace on the global variable a check or radio button
	// or an entry is linked to, nil for none.
	link *tcl.VarTrace
}

// widget is what install and the configure row need of every class.
type widget interface {
	// widgetBase returns the state the class shares with the others.
	widgetBase() *base
	// recompute re-reads configuration values, updates the requested
	// geometry and schedules a redraw.
	recompute() error
}

func (b *base) widgetBase() *base { return b }

// install finishes widget creation: applies the configuration arguments,
// prefetches the resulting display resources as one pipelined flight,
// registers the widget command with its class's subcommand rows, and
// hooks destruction.
func (b *base) install(w widget, rows []tcl.Row, args []string) (string, error) {
	if err := b.cv.ApplyArgs(args); err != nil {
		b.app.DestroyWindow(b.win)
		return "", err
	}
	b.prefetch()
	if err := w.recompute(); err != nil {
		b.app.DestroyWindow(b.win)
		return "", err
	}
	path := b.win.Path
	b.app.Interp.Define(instance(path, rows))
	return path, nil
}

// on returns the procedure of a subcommand row of the widgets of type
// W. It finds the widget by the command's name in app's window table
// and runs fn on it with the words after the subcommand's name.
func on[W any](app *tk.App, fn func(w W, args []string) (string, error)) tcl.CmdFunc {
	return func(_ *tcl.Interp, args []string) (string, error) {
		win, err := app.NameToWindow(args[0])
		if err != nil {
			return "", err
		}
		w, ok := win.Widget.(W)
		if !ok { // the command was renamed to the path of another window
			return "", fmt.Errorf("window %q has no %s command", args[0], args[1])
		}
		return fn(w, args[2:])
	}
}

// configure returns the configure row every class has.
func configure(app *tk.App) tcl.Row {
	return tcl.Row{Name: "configure", Max: -1, Usage: "?option? ?value option value ...?", Fn: on(app, func(w widget, args []string) (string, error) {
		b := w.widgetBase()
		return tk.HandleConfigure(b.cv, args, func() error {
			b.prefetch()
			return w.recompute()
		})
	})}
}

// configureOnly returns the rows of a class whose widgets have no
// subcommand but configure.
func configureOnly(app *tk.App) []tcl.Row { return []tcl.Row{configure(app)} }

// prefetch issues the widget's cache-missing color/font/cursor
// allocations as one pipelined batch (§3.3 meets the cookie model), so
// the recompute path that follows finds them all cached after a single
// round trip rather than one per resource.
func (b *base) prefetch() {
	colors, fonts, cursors := b.cv.ResourceNames()
	b.app.PrefetchResources(colors, fonts, cursors)
}

// Destroyed implements part of tk.Widget for all classes. It removes
// the widget's variable trace, as Tk's destroy procedures untrace the
// variable, so the variable no longer keeps the widget alive.
func (b *base) Destroyed() {
	b.app.Interp.Unregister(b.win.Path)
	b.linkVariable("", nil)
}

// linkVariable moves the widget's variable trace to the global variable
// name, and runs show now and whenever the variable is written or
// unset; an empty name removes the trace. Widgets call it from
// recompute, as Tk's configure procedures untrace the variable and
// trace the one the option names now. An unset deletes the variable
// with its traces, so after show the widget links again, as Tk's
// ButtonVarProc does.
func (b *base) linkVariable(name string, show func()) {
	if b.link != nil {
		b.app.Interp.UntraceVar(b.link)
		b.link = nil
	}
	if name == "" {
		return
	}
	b.link = b.app.Interp.TraceGlobal(name, "wu", func(_ *tcl.Interp, _, _, op string) {
		show()
		if op == "u" {
			b.linkVariable(name, show)
		}
	})
	show()
}

// resolve caches the font and colors from the current configuration.
func (b *base) resolve() error {
	font, err := b.app.FontByName(b.cv.Get("-font"))
	if err != nil {
		return err
	}
	b.font = font
	if b.bg, err = b.app.Color(b.cv.Get("-background")); err != nil {
		return err
	}
	if b.fg, err = b.app.Color(b.cv.Get("-foreground")); err != nil {
		return err
	}
	b.win.SetBackground(b.bg)
	if c := b.cv.Get("-cursor"); c != "" {
		cursor, err := b.app.Cursor(c)
		if err == nil {
			// CreateWindow carries no cursor, so a cursor makes the
			// window exist.
			b.win.MakeExist()
			b.app.Disp.SetWindowCursor(b.win.XID, cursor)
		}
	}
	return nil
}

// shade lightens (factor > 1) or darkens (factor < 1) a pixel for 3-D
// borders.
func shade(pixel uint32, factor float64) uint32 {
	adj := func(c uint32) uint32 {
		v := float64(c) * factor
		if v > 255 {
			v = 255
		}
		return uint32(v)
	}
	r := adj(pixel >> 16 & 0xff)
	g := adj(pixel >> 8 & 0xff)
	bl := adj(pixel & 0xff)
	return r<<16 | g<<8 | bl
}

// draw3DBorder renders a Motif-style relief border of width bw around
// the rectangle (x, y, w, h) in the widget's window. Each ring i of the
// border is four one-pixel strips: top and left in one shade, bottom
// and right in the other. All strips of a shade go in one request, as
// Xlib's XFillRectangles sends them, the top-left shade first. The
// border width is clamped to fit, as Tk_Draw3DRectangle clamps it.
func (b *base) draw3DBorder(x, y, w, h, bw int, bg uint32, relief string) {
	bw = min(bw, w/2, h/2)
	if bw <= 0 || relief == "flat" {
		return
	}
	light := shade(bg, 1.4)
	dark := shade(bg, 0.6)
	top, bottom := light, dark
	if relief == "sunken" || relief == "groove" {
		top, bottom = dark, light
	}
	half := bw
	if relief == "groove" || relief == "ridge" {
		half = max(bw/2, 1)
	}
	rect := func(x, y, w, h int) xproto.Rect {
		return xproto.Rect{X: int16(x), Y: int16(y), W: uint16(w), H: uint16(h)}
	}
	rects := make([]xproto.Rect, 0, 4*bw)
	for i := 0; i < half; i++ {
		rects = append(rects, rect(x+i, y+i, w-2*i, 1), rect(x+i, y+i, 1, h-2*i))
	}
	// The inner rings of a groove or ridge swap the shades. Their strips
	// end one pixel short of the corners the other shade paints, so
	// sending the top-left shade first leaves those corners to it.
	for i := half; i < bw; i++ {
		rects = append(rects, rect(x+i, y+h-1-i, w-2*i, 1), rect(x+w-1-i, y+i, 1, h-2*i))
	}
	nTop := len(rects)
	for i := 0; i < half; i++ {
		rects = append(rects, rect(x+i, y+h-1-i, w-2*i, 1), rect(x+w-1-i, y+i, 1, h-2*i))
	}
	for i := half; i < bw; i++ {
		rects = append(rects, rect(x+i, y+i, w-2*i-1, 1), rect(x+i, y+i, 1, h-2*i-1))
	}
	d := b.app.Disp
	d.FillRectangles(b.win.XID, b.app.GC(top, bg, 1, b.fontID()), rects[:nTop])
	d.FillRectangles(b.win.XID, b.app.GC(bottom, bg, 1, b.fontID()), rects[nTop:])
}

func (b *base) fontID() xproto.ID {
	if b.font != nil {
		return b.font.ID
	}
	return 0
}

// clear fills the widget window with a background pixel.
func (b *base) clear(bg uint32) {
	gc := b.app.GC(bg, bg, 1, b.fontID())
	b.app.Disp.FillRectangle(b.win.XID, gc, 0, 0, b.win.Width, b.win.Height)
}

// drawCenteredText draws a line of text centered in the window.
func (b *base) drawCenteredText(text string, fg, bg uint32) {
	gc := b.app.GC(fg, bg, 1, b.fontID())
	tw := b.font.TextWidth(text)
	x := (b.win.Width - tw) / 2
	y := (b.win.Height+b.font.Ascent-b.font.Descent)/2 + b.font.Descent/2
	b.app.Disp.DrawString(b.win.XID, gc, x, y, text)
}

// scrollView reports a listbox's or text's view to its -scroll command,
// the linkage that keeps a scrollbar current (Figure 9). A change to the
// view only marks it: one idle handler runs the command for any number
// of changes, as Tk's DisplayListbox and DisplayText do when
// UPDATE_V_SCROLLBAR is set. The command runs while the widget is
// unmapped too, and no longer once it is destroyed.
type scrollView struct {
	b *base
	// view returns how many lines the widget has, how many its window
	// shows and the first one shown.
	view     func() (lines, window, top int)
	pending  bool   // the idle handler is queued
	reported string // the command the handler last ran, figures included
}

// changed marks the view changed. A widget whose -scroll is empty
// schedules nothing.
func (s *scrollView) changed() {
	if s.pending || strings.TrimSpace(s.b.cv.Get("-scroll")) == "" {
		return
	}
	s.pending = true
	s.b.app.DoWhenIdle(s.report)
}

// report runs the -scroll command with the view's figures, unless it
// ran that command with those figures last, as Tk's text reports a view
// only when it changed: so a configure that fails, and recomputes the
// widget as it was, reports nothing.
func (s *scrollView) report() {
	s.pending = false
	cmd := s.b.cv.Get("-scroll")
	if s.b.win.Destroyed || strings.TrimSpace(cmd) == "" {
		return
	}
	lines, window, top := s.view()
	call := fmt.Sprintf("%s %d %d %d %d", cmd, lines, window, top, min(top+window, lines)-1)
	if call == s.reported {
		return
	}
	s.reported = call
	s.b.eval(strings.ToLower(s.b.win.Class)+" scroll command", call)
}

// clampTop returns the first line of a view of window lines out of
// lines that is nearest to want: the view never starts above the first
// line or leaves rows empty below the last.
func clampTop(want, lines, window int) int {
	return max(0, min(want, lines-window))
}

// eval runs a widget callback command, reporting failures as background
// errors (widget callbacks have no caller to return errors to).
func (b *base) eval(context, script string) {
	if strings.TrimSpace(script) == "" {
		return
	}
	if _, err := b.app.Interp.GlobalEval(script); err != nil {
		b.app.BackgroundError(context, err)
	}
}

// optionTable is a widget class's option table, built once on first use,
// as Tk's static Tk_ConfigSpec arrays are built once: every widget of the
// class shares it, and nothing writes to a table once it is built. A
// table is a package-level value, so a process that makes no widget of
// the class holds none of it on the heap.
type optionTable struct {
	once  sync.Once
	build func() []tk.OptionSpec
	specs []tk.OptionSpec
}

func (t *optionTable) get() []tk.OptionSpec {
	t.once.Do(func() { t.specs = t.build() })
	return t.specs
}

// standardSpecs returns the option specs shared by most widgets.
func standardSpecs(defBG string) []tk.OptionSpec {
	return []tk.OptionSpec{
		{Name: "-background", DBName: "background", DBClass: "Background", Default: defBG},
		{Name: "-bg", Synonym: "-background"},
		{Name: "-foreground", DBName: "foreground", DBClass: "Foreground", Default: DefForeground},
		{Name: "-fg", Synonym: "-foreground"},
		{Name: "-font", DBName: "font", DBClass: "Font", Default: DefFont},
		{Name: "-borderwidth", DBName: "borderWidth", DBClass: "BorderWidth", Default: "2"},
		{Name: "-bd", Synonym: "-borderwidth"},
		{Name: "-relief", DBName: "relief", DBClass: "Relief", Default: "flat"},
		{Name: "-cursor", DBName: "cursor", DBClass: "Cursor", Default: ""},
	}
}

// newBase creates the window for a widget and prepares its configuration
// storage, applying option-database values and defaults.
func newBase(app *tk.App, path, class string, specs []tk.OptionSpec, topLevel bool) (*base, error) {
	var win *tk.Window
	var err error
	if topLevel {
		win, err = app.CreateTopLevel(path, class)
	} else {
		win, err = app.CreateWindow(path, class)
	}
	if err != nil {
		return nil, err
	}
	b := &base{app: app, win: win, cv: tk.NewConfigValues(specs)}
	b.cv.ApplyDefaults(app, win)
	return b, nil
}

// geomAndExposure wires the standard redraw triggers: exposure and
// resize.
func (b *base) geomAndExposure() {
	b.win.AddEventHandler(xproto.ExposureMask, func(*xproto.Event) {
		b.win.ScheduleRedraw()
	})
}

// parseIndex parses an item index: an integer, or "end", which is end.
func parseIndex(s string, end int) (int, error) {
	if s == "end" {
		return end, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad index %q", s)
	}
	return n, nil
}
