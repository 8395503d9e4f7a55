package widget

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Scrollbar implements the Scrollbar class with the classic (paper-era)
// protocol: the scrollbar is created with a -command prefix such as
// ".list view"; when the user manipulates it, the scrollbar appends a
// unit number and evaluates the result (".list view 40", §4). The
// associated widget keeps the scrollbar current by calling
// ".scroll set totalUnits windowUnits first last".
type Scrollbar struct {
	base

	total  int // total units in the associated widget
	window int // units visible at once
	first  int // first visible unit
	last   int // last visible unit

	dragging   bool
	dragOffset int
}

// scrollbarSpecs is the Scrollbar option table, built once on first use.
var scrollbarSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	for i := range specs {
		if specs[i].Name == "-relief" {
			specs[i].Default = "sunken"
		}
	}
	return append(specs,
		tk.OptionSpec{Name: "-command", DBName: "command", DBClass: "Command", Default: ""},
		tk.OptionSpec{Name: "-orient", DBName: "orient", DBClass: "Orient", Default: "vertical"},
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "15"},
		tk.OptionSpec{Name: "-length", DBName: "length", DBClass: "Length", Default: "100"},
	)
}}

func registerScrollbar(app *tk.App) {
	app.Interp.Register("scrollbar", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "scrollbar pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Scrollbar", scrollbarSpecs.get(), false)
		if err != nil {
			return "", err
		}
		sb := &Scrollbar{base: *b, total: 1, window: 1}
		sb.win.Widget = sb
		sb.geomAndExposure()
		sb.bindBehaviour()
		return sb.install(sb, args[2:])
	})
}

func (sb *Scrollbar) vertical() bool { return sb.cv.Get("-orient") != "horizontal" }

// geometry helpers: along is the scrolling axis length, across the other.
func (sb *Scrollbar) along() int {
	if sb.vertical() {
		return sb.win.Height
	}
	return sb.win.Width
}

// arrowSize is the size of each end arrow along the axis.
func (sb *Scrollbar) arrowSize() int {
	if sb.vertical() {
		return sb.win.Width
	}
	return sb.win.Height
}

// sliderSpan returns the slider's pixel range [start, end) along the
// axis.
func (sb *Scrollbar) sliderSpan() (int, int) {
	arrow := sb.arrowSize()
	trough := sb.along() - 2*arrow
	if trough < 1 {
		trough = 1
	}
	total := sb.total
	if total < 1 {
		total = 1
	}
	start := arrow + sb.first*trough/total
	span := sb.window * trough / total
	if span < 8 {
		span = 8
	}
	end := start + span
	if end > arrow+trough {
		end = arrow + trough
	}
	return start, end
}

// emit evaluates the -command prefix with unit appended (§4's "the
// scrollbar adds an additional number to it, producing a command like
// '.list view 40'").
func (sb *Scrollbar) emit(unit int) {
	if unit < 0 {
		unit = 0
	}
	cmd := sb.cv.Get("-command")
	if strings.TrimSpace(cmd) == "" {
		return
	}
	sb.eval("scrollbar command", cmd+" "+strconv.Itoa(unit))
}

// unitAt converts a pixel position along the axis to a unit number for
// slider dragging.
func (sb *Scrollbar) unitAt(pos int) int {
	arrow := sb.arrowSize()
	trough := sb.along() - 2*arrow
	if trough < 1 {
		trough = 1
	}
	return (pos - arrow) * sb.total / trough
}

func (sb *Scrollbar) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.ButtonReleaseMask | xproto.ButtonMotionMask
	sb.win.AddEventHandler(mask, func(ev *xproto.Event) {
		pos := int(ev.Y)
		if !sb.vertical() {
			pos = int(ev.X)
		}
		switch int(ev.Type) {
		case xproto.ButtonPress:
			if ev.Detail != 1 {
				return
			}
			arrow := sb.arrowSize()
			start, end := sb.sliderSpan()
			switch {
			case pos < arrow:
				sb.emit(sb.first - 1) // up/left arrow: scroll one unit
			case pos >= sb.along()-arrow:
				sb.emit(sb.first + 1) // down/right arrow
			case pos < start:
				sb.emit(sb.first - (sb.window - 1)) // page up
			case pos >= end:
				sb.emit(sb.first + (sb.window - 1)) // page down
			default:
				sb.dragging = true
				sb.dragOffset = pos - start
			}
		case xproto.MotionNotify:
			if sb.dragging {
				sb.emit(sb.unitAt(pos - sb.dragOffset))
			}
		case xproto.ButtonRelease:
			if ev.Detail == 1 {
				sb.dragging = false
			}
		}
	})
}

// recompute implements subcommander.
func (sb *Scrollbar) recompute() error {
	if err := sb.resolve(); err != nil {
		return err
	}
	width := sb.cv.GetInt("-width", 15)
	length := sb.cv.GetInt("-length", 100)
	if sb.vertical() {
		sb.win.GeometryRequest(width, length)
	} else {
		sb.win.GeometryRequest(length, width)
	}
	sb.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (sb *Scrollbar) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "set":
		if len(args) != 4 {
			return "", fmt.Errorf(`wrong # args: should be "%s set totalUnits windowUnits firstUnit lastUnit"`, sb.win.Path)
		}
		vals := make([]int, 4)
		for i, a := range args {
			n, err := strconv.Atoi(a)
			if err != nil {
				return "", fmt.Errorf("expected integer but got %q", a)
			}
			vals[i] = n
		}
		sb.total, sb.window, sb.first, sb.last = vals[0], vals[1], vals[2], vals[3]
		sb.win.ScheduleRedraw()
		return "", nil
	case "get":
		return fmt.Sprintf("%d %d %d %d", sb.total, sb.window, sb.first, sb.last), nil
	}
	return "", fmt.Errorf("bad option %q: must be set, get, or configure", sub)
}

// Redraw implements tk.Widget.
func (sb *Scrollbar) Redraw() {
	if sb.win.Destroyed {
		return
	}
	sb.clear(sb.bg)
	bd := sb.cv.GetInt("-borderwidth", 2)
	sb.draw3DBorder(0, 0, sb.win.Width, sb.win.Height, bd, sb.bg, sb.cv.Get("-relief"))

	arrow := sb.arrowSize()
	fgGC := sb.app.GC(shade(sb.bg, 0.7), sb.bg, 1, sb.fontID())
	d := sb.app.Disp
	// Arrows as filled triangles.
	if sb.vertical() {
		w := sb.win.Width
		d.FillPolygon(sb.win.XID, fgGC, []xproto.Point{
			{X: int16(w / 2), Y: int16(bd)},
			{X: int16(w - bd), Y: int16(arrow - bd)},
			{X: int16(bd), Y: int16(arrow - bd)},
		})
		h := sb.win.Height
		d.FillPolygon(sb.win.XID, fgGC, []xproto.Point{
			{X: int16(w / 2), Y: int16(h - bd)},
			{X: int16(w - bd), Y: int16(h - arrow + bd)},
			{X: int16(bd), Y: int16(h - arrow + bd)},
		})
	} else {
		h := sb.win.Height
		d.FillPolygon(sb.win.XID, fgGC, []xproto.Point{
			{X: int16(bd), Y: int16(h / 2)},
			{X: int16(arrow - bd), Y: int16(bd)},
			{X: int16(arrow - bd), Y: int16(h - bd)},
		})
		w := sb.win.Width
		d.FillPolygon(sb.win.XID, fgGC, []xproto.Point{
			{X: int16(w - bd), Y: int16(h / 2)},
			{X: int16(w - arrow + bd), Y: int16(bd)},
			{X: int16(w - arrow + bd), Y: int16(h - bd)},
		})
	}
	// Slider.
	start, end := sb.sliderSpan()
	sliderGC := sb.app.GC(shade(sb.bg, 1.15), sb.bg, 1, sb.fontID())
	if sb.vertical() {
		d.FillRectangle(sb.win.XID, sliderGC, bd, start, sb.win.Width-2*bd, end-start)
		sb.draw3DBorder(bd, start, sb.win.Width-2*bd, end-start, 2, shade(sb.bg, 1.15), "raised")
	} else {
		d.FillRectangle(sb.win.XID, sliderGC, start, bd, end-start, sb.win.Height-2*bd)
		sb.draw3DBorder(start, bd, end-start, sb.win.Height-2*bd, 2, shade(sb.bg, 1.15), "raised")
	}
}
