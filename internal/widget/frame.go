package widget

import (
	"fmt"

	"repro/internal/tcl"
	"repro/internal/tk"
)

// Frame is a container widget: a rectangle with a background and an
// optional 3-D border, used to group and arrange other widgets. Toplevel
// is the same widget created as a top-level window.
type Frame struct {
	base
}

// frameSpecs is the Frame and Toplevel option table, built once on first use.
var frameSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	return append(specs,
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "0"},
		tk.OptionSpec{Name: "-height", DBName: "height", DBClass: "Height", Default: "0"},
		tk.OptionSpec{Name: "-geometry", DBName: "geometry", DBClass: "Geometry", Default: ""},
	)
}}

// createFrame returns the creation procedure of frames, or with top
// set, of top-level windows.
func createFrame(top bool) func(*tk.App, []string, []tcl.Row) (string, error) {
	return func(app *tk.App, args []string, rows []tcl.Row) (string, error) {
		class := "Frame"
		if top {
			class = "Toplevel"
		}
		b, err := newBase(app, args[1], class, frameSpecs.get(), top)
		if err != nil {
			return "", err
		}
		f := &Frame{base: *b}
		f.win.Widget = f
		f.geomAndExposure()
		path, err := f.install(f, rows, args[2:])
		if err == nil && top {
			app.DoWhenIdle(f.mapFrame)
		}
		return path, err
	}
}

// recompute implements widget.
func (f *Frame) recompute() error {
	if err := f.resolve(); err != nil {
		return err
	}
	bd := f.cv.GetInt("-borderwidth", 2)
	f.win.InternalBorder = bd
	w := f.cv.GetInt("-width", 0)
	h := f.cv.GetInt("-height", 0)
	// The old Tk -geometry option: "WxH".
	if g := f.cv.Get("-geometry"); g != "" {
		var ok bool
		if w, h, ok = tk.ParsePair(g, "x"); !ok {
			return fmt.Errorf("bad geometry %q", g)
		}
	}
	if w > 0 || h > 0 {
		f.win.GeometryRequest(max(w, 1), max(h, 1))
	}
	f.win.ScheduleRedraw()
	return nil
}

// mapFrame maps a new top-level, as Tk's MapFrame does: from an idle
// handler that first lets the other pending idle handlers run, so the
// geometry managers have sized the window before it is created, mapped
// and painted.
func (f *Frame) mapFrame() {
	for f.app.RunIdle() {
		if f.win.Destroyed {
			return
		}
	}
	f.win.Map()
}

// Redraw implements tk.Widget.
func (f *Frame) Redraw() {
	f.clear(f.bg)
	f.draw3DBorder(0, 0, f.win.Width, f.win.Height,
		f.cv.GetInt("-borderwidth", 2), f.bg, f.cv.Get("-relief"))
}
