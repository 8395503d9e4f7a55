package widget

import (
	"fmt"
	"strconv"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Scale implements the Scale class: a slider for selecting an integer in
// a range; manipulating it evaluates the -command with the value
// appended, like all Tk widget actions (§4).
type Scale struct {
	base
	value    int
	dragging bool
}

// scaleSpecs is the Scale option table, built once on first use.
var scaleSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	return append(specs,
		tk.OptionSpec{Name: "-command", DBName: "command", DBClass: "Command", Default: ""},
		tk.OptionSpec{Name: "-from", DBName: "from", DBClass: "From", Default: "0"},
		tk.OptionSpec{Name: "-to", DBName: "to", DBClass: "To", Default: "100"},
		tk.OptionSpec{Name: "-length", DBName: "length", DBClass: "Length", Default: "100"},
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "15"},
		tk.OptionSpec{Name: "-orient", DBName: "orient", DBClass: "Orient", Default: "horizontal"},
		tk.OptionSpec{Name: "-label", DBName: "label", DBClass: "Label", Default: ""},
		tk.OptionSpec{Name: "-showvalue", DBName: "showValue", DBClass: "ShowValue", Default: "1"},
		tk.OptionSpec{Name: "-sliderlength", DBName: "sliderLength", DBClass: "SliderLength", Default: "25"},
	)
}}

func registerScale(app *tk.App) {
	app.Interp.Register("scale", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "scale pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Scale", scaleSpecs.get(), false)
		if err != nil {
			return "", err
		}
		s := &Scale{base: *b}
		s.win.Widget = s
		s.geomAndExposure()
		s.bindBehaviour()
		return s.install(s, args[2:])
	})
}

func (s *Scale) horizontal() bool { return s.cv.Get("-orient") != "vertical" }

func (s *Scale) from() int { return s.cv.GetInt("-from", 0) }
func (s *Scale) to() int   { return s.cv.GetInt("-to", 100) }

// valueAt converts a pixel coordinate along the axis to a value.
func (s *Scale) valueAt(pos int) int {
	bd := s.cv.GetInt("-borderwidth", 2)
	sl := s.cv.GetInt("-sliderlength", 25)
	length := s.win.Width
	if !s.horizontal() {
		length = s.win.Height
	}
	span := length - 2*bd - sl
	if span < 1 {
		span = 1
	}
	f, t := s.from(), s.to()
	v := f + (pos-bd-sl/2)*(t-f)/span
	if t > f {
		if v < f {
			v = f
		}
		if v > t {
			v = t
		}
	} else {
		if v > f {
			v = f
		}
		if v < t {
			v = t
		}
	}
	return v
}

func (s *Scale) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.ButtonReleaseMask | xproto.ButtonMotionMask
	s.win.AddEventHandler(mask, func(ev *xproto.Event) {
		pos := int(ev.X)
		if !s.horizontal() {
			pos = int(ev.Y)
		}
		switch int(ev.Type) {
		case xproto.ButtonPress:
			if ev.Detail == 1 {
				s.dragging = true
				s.Set(s.valueAt(pos))
			}
		case xproto.MotionNotify:
			if s.dragging {
				s.Set(s.valueAt(pos))
			}
		case xproto.ButtonRelease:
			if ev.Detail == 1 {
				s.dragging = false
			}
		}
	})
}

// Set assigns the scale's value, redraws, and runs the -command.
func (s *Scale) Set(v int) {
	if v == s.value {
		return
	}
	s.value = v
	s.win.ScheduleRedraw()
	if cmd := s.cv.Get("-command"); cmd != "" {
		s.eval("scale command", cmd+" "+strconv.Itoa(v))
	}
}

// recompute implements subcommander.
func (s *Scale) recompute() error {
	if err := s.resolve(); err != nil {
		return err
	}
	length := s.cv.GetInt("-length", 100)
	width := s.cv.GetInt("-width", 15)
	extra := 0
	if s.cv.GetBool("-showvalue") {
		extra += s.font.LineHeight()
	}
	if s.cv.Get("-label") != "" {
		extra += s.font.LineHeight()
	}
	bd := s.cv.GetInt("-borderwidth", 2)
	if s.horizontal() {
		s.win.GeometryRequest(length, width+extra+2*bd)
	} else {
		s.win.GeometryRequest(width+extra+2*bd, length)
	}
	s.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (s *Scale) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "set":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s set value"`, s.win.Path)
		}
		v, err := strconv.Atoi(args[0])
		if err != nil {
			return "", fmt.Errorf("expected integer but got %q", args[0])
		}
		s.Set(v)
		return "", nil
	case "get":
		return strconv.Itoa(s.value), nil
	}
	return "", fmt.Errorf("bad option %q: must be set, get, or configure", sub)
}

// Redraw implements tk.Widget.
func (s *Scale) Redraw() {
	if s.win.Destroyed {
		return
	}
	s.clear(s.bg)
	bd := s.cv.GetInt("-borderwidth", 2)
	sl := s.cv.GetInt("-sliderlength", 25)
	width := s.cv.GetInt("-width", 15)
	d := s.app.Disp
	trough := shade(s.bg, 0.85)
	gcTrough := s.app.GC(trough, s.bg, 1, s.fontID())
	gcSlider := s.app.GC(shade(s.bg, 1.15), s.bg, 1, s.fontID())
	f, t := s.from(), s.to()
	span := t - f
	if span == 0 {
		span = 1
	}
	y := bd
	if s.cv.Get("-label") != "" {
		gc := s.app.GC(s.fg, s.bg, 1, s.fontID())
		d.DrawString(s.win.XID, gc, bd+2, y+s.font.Ascent, s.cv.Get("-label"))
		y += s.font.LineHeight()
	}
	if s.horizontal() {
		troughLen := s.win.Width - 2*bd
		d.FillRectangle(s.win.XID, gcTrough, bd, y, troughLen, width)
		sliderX := bd + (s.value-f)*(troughLen-sl)/span
		d.FillRectangle(s.win.XID, gcSlider, sliderX, y, sl, width)
		s.draw3DBorder(sliderX, y, sl, width, 2, shade(s.bg, 1.15), "raised")
		if s.cv.GetBool("-showvalue") {
			gc := s.app.GC(s.fg, s.bg, 1, s.fontID())
			label := strconv.Itoa(s.value)
			d.DrawString(s.win.XID, gc,
				sliderX+(sl-s.font.TextWidth(label))/2,
				y+width+s.font.Ascent, label)
		}
	} else {
		troughLen := s.win.Height - 2*bd
		d.FillRectangle(s.win.XID, gcTrough, bd, bd, width, troughLen)
		sliderY := bd + (s.value-f)*(troughLen-sl)/span
		d.FillRectangle(s.win.XID, gcSlider, bd, sliderY, width, sl)
		s.draw3DBorder(bd, sliderY, width, sl, 2, shade(s.bg, 1.15), "raised")
		if s.cv.GetBool("-showvalue") {
			gc := s.app.GC(s.fg, s.bg, 1, s.fontID())
			d.DrawString(s.win.XID, gc, bd+width+3, sliderY+s.font.Ascent, strconv.Itoa(s.value))
		}
	}
}
