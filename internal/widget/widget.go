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

// commands returns the rows of the widget-creation commands, sorted by
// name, their procedures bound to app.
func commands(app *tk.App) []tcl.Row {
	row := func(name string, fn tcl.CmdFunc) tcl.Row {
		return tcl.Row{Name: name, Fn: fn, Min: 1, Max: -1, Usage: "pathName ?options?"}
	}
	return []tcl.Row{
		row("button", createButton(app, kindButton)),
		row("canvas", createCanvas(app)),
		row("checkbutton", createButton(app, kindCheck)),
		row("entry", createEntry(app)),
		row("frame", createFrame(app, false)),
		row("label", createButton(app, kindLabel)),
		row("listbox", createListbox(app)),
		row("menu", createMenu(app)),
		row("menubutton", createMenubutton(app)),
		row("message", createMessage(app)),
		row("radiobutton", createButton(app, kindRadio)),
		row("scale", createScale(app)),
		row("scrollbar", createScrollbar(app)),
		row("text", createText(app)),
		row("toplevel", createFrame(app, true)),
	}
}

// Commands returns the rows of the widget-creation commands Register
// installs. It needs no application and exists so tools such as
// cmd/tkcheck can read the command set statically.
func Commands() []tcl.Row { return commands(nil) }

// CommandNames returns, sorted, the names of the Commands rows.
func CommandNames() []string {
	var names []string
	for _, c := range Commands() {
		names = append(names, c.Name)
	}
	return names
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
}

// subcommander is the widget-specific part of a widget command.
type subcommander interface {
	// widgetCommand executes one subcommand (args excludes the widget
	// path and the subcommand word itself).
	widgetCommand(sub string, args []string) (string, error)
	// recompute re-reads configuration values, updates the requested
	// geometry and schedules a redraw.
	recompute() error
}

// install finishes widget creation: applies the configuration arguments,
// prefetches the resulting display resources as one pipelined flight,
// registers the widget command, and hooks destruction.
func (b *base) install(w subcommander, args []string) (string, error) {
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
	b.app.Interp.Register(path, func(in *tcl.Interp, argv []string) (string, error) {
		if b.win.Destroyed {
			return "", fmt.Errorf("window %q has been destroyed", path)
		}
		if len(argv) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s option ?arg ...?"`, path)
		}
		sub := argv[1]
		if sub == "configure" {
			return tk.HandleConfigure(b.cv, argv[2:], func() error {
				b.prefetch()
				return w.recompute()
			})
		}
		return w.widgetCommand(sub, argv[2:])
	})
	return path, nil
}

// prefetch issues the widget's cache-missing color/font/cursor
// allocations as one pipelined batch (§3.3 meets the cookie model), so
// the recompute path that follows finds them all cached after a single
// round trip rather than one per resource.
func (b *base) prefetch() {
	colors, fonts, cursors := b.cv.ResourceNames()
	b.app.PrefetchResources(colors, fonts, cursors)
}

// Destroyed implements part of tk.Widget for all classes.
func (b *base) Destroyed() {
	b.app.Interp.Unregister(b.win.Path)
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

// parseInt is a small helper for widget argument parsing, accepting
// "end" as -1.
func parseIndex(s string, end int) (int, error) {
	if s == "end" {
		return end, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		return 0, fmt.Errorf("bad index %q", s)
	}
	return n, nil
}
