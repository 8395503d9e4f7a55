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

func registerFrame(app *tk.App) {
	create := func(top bool) tcl.CmdFunc {
		return func(in *tcl.Interp, args []string) (string, error) {
			if len(args) < 2 {
				return "", fmt.Errorf(`wrong # args: should be "%s pathName ?options?"`, args[0])
			}
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
			path, err := f.install(f, args[2:])
			if err == nil && top {
				app.DoWhenIdle(f.mapFrame)
			}
			return path, err
		}
	}
	app.Interp.Register("frame", create(false))
	app.Interp.Register("toplevel", create(true))
}

// recompute implements subcommander.
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
		var gw, gh int
		if n, _ := fmt.Sscanf(g, "%dx%d", &gw, &gh); n == 2 {
			w, h = gw, gh
		} else {
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

// widgetCommand implements subcommander; frames have no class-specific
// subcommands.
func (f *Frame) widgetCommand(sub string, args []string) (string, error) {
	return "", fmt.Errorf("bad option %q: must be configure", sub)
}

// Redraw implements tk.Widget.
func (f *Frame) Redraw() {
	f.clear(f.bg)
	f.draw3DBorder(0, 0, f.win.Width, f.win.Height,
		f.cv.GetInt("-borderwidth", 2), f.bg, f.cv.Get("-relief"))
}
