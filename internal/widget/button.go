package widget

import (
	"fmt"
	"time"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// This file implements labels, buttons, check buttons and radio buttons —
// one file for all four, exactly as Table I of the paper notes ("in Tk a
// single file implements labels, buttons, check buttons, and radio
// buttons"; Motif needs three).

// Button kinds.
const (
	kindLabel = iota
	kindButton
	kindCheck
	kindRadio
)

// Button implements the Label, Button, Checkbutton and Radiobutton
// classes.
type Button struct {
	base
	kind int

	// Behaviour state.
	active  bool // pointer inside
	pressed bool // button 1 down inside
	on      bool // indicator state for check/radio

	indicatorSize int
}

// buttonSpecs holds the option table of each button kind, built once on
// first use.
var buttonSpecs = [...]optionTable{
	kindLabel:  {build: func() []tk.OptionSpec { return makeButtonSpecs(kindLabel) }},
	kindButton: {build: func() []tk.OptionSpec { return makeButtonSpecs(kindButton) }},
	kindCheck:  {build: func() []tk.OptionSpec { return makeButtonSpecs(kindCheck) }},
	kindRadio:  {build: func() []tk.OptionSpec { return makeButtonSpecs(kindRadio) }},
}

func makeButtonSpecs(kind int) []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	specs = append(specs,
		tk.OptionSpec{Name: "-text", DBName: "text", DBClass: "Text", Default: ""},
		tk.OptionSpec{Name: "-bitmap", DBName: "bitmap", DBClass: "Bitmap", Default: ""},
		tk.OptionSpec{Name: "-padx", DBName: "padX", DBClass: "Pad", Default: "4"},
		tk.OptionSpec{Name: "-pady", DBName: "padY", DBClass: "Pad", Default: "2"},
		tk.OptionSpec{Name: "-anchor", DBName: "anchor", DBClass: "Anchor", Default: "center"},
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "0"},
		tk.OptionSpec{Name: "-height", DBName: "height", DBClass: "Height", Default: "0"},
	)
	if kind != kindLabel {
		specs = append(specs,
			tk.OptionSpec{Name: "-command", DBName: "command", DBClass: "Command", Default: ""},
			tk.OptionSpec{Name: "-activebackground", DBName: "activeBackground", DBClass: "Foreground", Default: DefActiveBackground},
			tk.OptionSpec{Name: "-activeforeground", DBName: "activeForeground", DBClass: "Background", Default: DefForeground},
			tk.OptionSpec{Name: "-state", DBName: "state", DBClass: "State", Default: "normal"},
		)
	}
	switch kind {
	case kindCheck:
		specs = append(specs,
			tk.OptionSpec{Name: "-variable", DBName: "variable", DBClass: "Variable", Default: ""},
			tk.OptionSpec{Name: "-onvalue", DBName: "onValue", DBClass: "Value", Default: "1"},
			tk.OptionSpec{Name: "-offvalue", DBName: "offValue", DBClass: "Value", Default: "0"},
			tk.OptionSpec{Name: "-selector", DBName: "selector", DBClass: "Foreground", Default: "firebrick"},
		)
	case kindRadio:
		specs = append(specs,
			tk.OptionSpec{Name: "-variable", DBName: "variable", DBClass: "Variable", Default: "selectedButton"},
			tk.OptionSpec{Name: "-value", DBName: "value", DBClass: "Value", Default: ""},
			tk.OptionSpec{Name: "-selector", DBName: "selector", DBClass: "Foreground", Default: "firebrick"},
		)
	}
	// Buttons default to a raised relief; labels are flat.
	for i := range specs {
		if specs[i].Name == "-relief" && kind != kindLabel {
			specs[i].Default = "raised"
		}
	}
	return specs
}

func classFor(kind int) string {
	switch kind {
	case kindLabel:
		return "Label"
	case kindButton:
		return "Button"
	case kindCheck:
		return "Checkbutton"
	default:
		return "Radiobutton"
	}
}

func registerButtons(app *tk.App) {
	create := func(kind int) tcl.CmdFunc {
		return func(in *tcl.Interp, args []string) (string, error) {
			if len(args) < 2 {
				return "", fmt.Errorf(`wrong # args: should be "%s pathName ?options?"`, args[0])
			}
			b, err := newBase(app, args[1], classFor(kind), buttonSpecs[kind].get(), false)
			if err != nil {
				return "", err
			}
			bt := &Button{base: *b, kind: kind, indicatorSize: 11}
			bt.win.Widget = bt
			bt.geomAndExposure()
			if kind != kindLabel {
				bt.bindBehaviour()
			}
			res, err := bt.install(bt, args[2:])
			if err != nil {
				return "", err
			}
			if kind == kindCheck || kind == kindRadio {
				bt.watchVariable()
			}
			return res, nil
		}
	}
	app.Interp.Register("label", create(kindLabel))
	app.Interp.Register("button", create(kindButton))
	app.Interp.Register("checkbutton", create(kindCheck))
	app.Interp.Register("radiobutton", create(kindRadio))
}

// bindBehaviour installs the class behaviour: highlight on enter, sink on
// press, invoke on release-inside (§4: "if a mouse button is clicked over
// a button widget ... some action will be invoked in the application").
func (bt *Button) bindBehaviour() {
	mask := xproto.EnterWindowMask | xproto.LeaveWindowMask |
		xproto.ButtonPressMask | xproto.ButtonReleaseMask
	bt.win.AddEventHandler(mask, func(ev *xproto.Event) {
		switch int(ev.Type) {
		case xproto.EnterNotify:
			bt.active = true
			bt.win.ScheduleRedraw()
		case xproto.LeaveNotify:
			bt.active = false
			bt.pressed = false
			bt.win.ScheduleRedraw()
		case xproto.ButtonPress:
			if ev.Detail == 1 && bt.cv.Get("-state") != "disabled" {
				bt.pressed = true
				bt.win.ScheduleRedraw()
			}
		case xproto.ButtonRelease:
			if ev.Detail == 1 && bt.pressed {
				bt.pressed = false
				bt.win.ScheduleRedraw()
				inside := ev.X >= 0 && ev.Y >= 0 &&
					int(ev.X) < bt.win.Width && int(ev.Y) < bt.win.Height
				if inside {
					bt.Invoke()
				}
			}
		}
	})
}

// watchVariable keeps a check/radio button's indicator in sync with its
// Tcl variable, including changes made by other widgets or scripts.
func (bt *Button) watchVariable() {
	name := bt.cv.Get("-variable")
	if name == "" {
		return
	}
	update := func() {
		v, err := bt.app.Interp.GetGlobal(name)
		if err != nil {
			v = ""
		}
		var on bool
		if bt.kind == kindCheck {
			on = v == bt.cv.Get("-onvalue")
		} else {
			on = v != "" && v == bt.radioValue()
		}
		if on != bt.on {
			bt.on = on
			bt.win.ScheduleRedraw()
		}
	}
	bt.app.Interp.TraceGlobal(name, "wu", func(*tcl.Interp, string, string, string) {
		if !bt.win.Destroyed {
			update()
		}
	})
	update()
}

func (bt *Button) radioValue() string {
	if v := bt.cv.Get("-value"); v != "" {
		return v
	}
	return bt.win.Name
}

// Invoke performs the widget's action: toggling/selecting for indicator
// buttons, then evaluating -command.
func (bt *Button) Invoke() {
	switch bt.kind {
	case kindCheck:
		if bt.on {
			bt.setVariable(bt.cv.Get("-offvalue"))
		} else {
			bt.setVariable(bt.cv.Get("-onvalue"))
		}
	case kindRadio:
		bt.setVariable(bt.radioValue())
	}
	bt.eval(fmt.Sprintf("command bound to %s", bt.win.Path), bt.cv.Get("-command"))
}

func (bt *Button) setVariable(value string) {
	name := bt.cv.Get("-variable")
	if name == "" {
		return
	}
	if _, err := bt.app.Interp.SetGlobal(name, value); err != nil {
		bt.app.BackgroundError("button variable", err)
	}
}

// Flash alternates the button between active and normal colors a few
// times (the ".hello flash" example in §4). An unmapped button draws
// nothing, as Tk's display procedure returns unless Tk_IsMapped: it may
// have no X window yet.
func (bt *Button) Flash() {
	if !bt.win.Mapped {
		return
	}
	for i := 0; i < 4; i++ {
		bt.active = !bt.active
		bt.Redraw()
		bt.app.Disp.Flush()
		time.Sleep(10 * time.Millisecond)
	}
	bt.Redraw()
}

// recompute implements subcommander.
func (bt *Button) recompute() error {
	if err := bt.resolve(); err != nil {
		return err
	}
	bd := bt.cv.GetInt("-borderwidth", 2)
	padX := bt.cv.GetInt("-padx", 4)
	padY := bt.cv.GetInt("-pady", 2)
	text := bt.cv.Get("-text")
	w := bt.font.TextWidth(text)
	h := bt.font.LineHeight()
	if bm := bt.cv.Get("-bitmap"); bm != "" {
		bitmap, err := bt.app.BitmapByName(bm)
		if err != nil {
			return err
		}
		w, h = bitmap.Width, bitmap.Height
	}
	if chars := bt.cv.GetInt("-width", 0); chars > 0 {
		w = chars * bt.font.TextWidth("0")
	}
	if lines := bt.cv.GetInt("-height", 0); lines > 0 {
		h = lines * bt.font.LineHeight()
	}
	if bt.kind == kindCheck || bt.kind == kindRadio {
		w += bt.indicatorSize + 6
	}
	bt.win.GeometryRequest(w+2*padX+2*bd, h+2*padY+2*bd)
	bt.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (bt *Button) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "flash":
		if bt.kind == kindLabel {
			return "", fmt.Errorf("labels can't flash")
		}
		bt.Flash()
		return "", nil
	case "invoke":
		if bt.kind == kindLabel {
			return "", fmt.Errorf("labels can't be invoked")
		}
		bt.Invoke()
		return "", nil
	case "activate":
		bt.active = true
		bt.win.ScheduleRedraw()
		return "", nil
	case "deactivate":
		bt.active = false
		bt.win.ScheduleRedraw()
		return "", nil
	case "select":
		if bt.kind == kindCheck {
			bt.setVariable(bt.cv.Get("-onvalue"))
			return "", nil
		}
		if bt.kind == kindRadio {
			bt.setVariable(bt.radioValue())
			return "", nil
		}
	case "deselect":
		if bt.kind == kindCheck {
			bt.setVariable(bt.cv.Get("-offvalue"))
			return "", nil
		}
		if bt.kind == kindRadio {
			if bt.on {
				bt.setVariable("")
			}
			return "", nil
		}
	case "toggle":
		if bt.kind == kindCheck {
			bt.Invoke()
			return "", nil
		}
	}
	return "", fmt.Errorf("bad option %q for %s widget", sub, classFor(bt.kind))
}

// Redraw implements tk.Widget.
func (bt *Button) Redraw() {
	if bt.win.Destroyed {
		return
	}
	bg := bt.bg
	fg := bt.fg
	disabled := bt.kind != kindLabel && bt.cv.Get("-state") == "disabled"
	switch {
	case disabled:
		// Disabled widgets draw their content greyed out.
		fg = shade(bg, 0.55)
	case bt.active && bt.kind != kindLabel:
		if px, err := bt.app.Color(bt.cv.Get("-activebackground")); err == nil {
			bg = px
		}
		if px, err := bt.app.Color(bt.cv.Get("-activeforeground")); err == nil {
			fg = px
		}
	}
	bt.clear(bg)
	bd := bt.cv.GetInt("-borderwidth", 2)
	relief := bt.cv.Get("-relief")
	if bt.pressed {
		relief = "sunken"
	}
	bt.draw3DBorder(0, 0, bt.win.Width, bt.win.Height, bd, bg, relief)

	contentX := bd + bt.cv.GetInt("-padx", 4)
	// Indicator for check/radio buttons.
	if bt.kind == kindCheck || bt.kind == kindRadio {
		selColor := bg
		if bt.on {
			if px, err := bt.app.Color(bt.cv.Get("-selector")); err == nil {
				selColor = px
			}
		}
		size := bt.indicatorSize
		y := (bt.win.Height - size) / 2
		gcSel := bt.app.GC(selColor, bg, 1, bt.fontID())
		if bt.kind == kindCheck {
			bt.app.Disp.FillRectangle(bt.win.XID, gcSel, contentX, y, size, size)
			bt.draw3DBorder(contentX, y, size, size, 2, bg, "sunken")
		} else {
			pts := []xproto.Point{
				{X: int16(contentX + size/2), Y: int16(y)},
				{X: int16(contentX + size), Y: int16(y + size/2)},
				{X: int16(contentX + size/2), Y: int16(y + size)},
				{X: int16(contentX), Y: int16(y + size/2)},
			}
			bt.app.Disp.FillPolygon(bt.win.XID, gcSel, pts)
		}
		contentX += size + 6
	}

	// Text or bitmap.
	if bm := bt.cv.Get("-bitmap"); bm != "" {
		if bitmap, err := bt.app.BitmapByName(bm); err == nil {
			bt.drawBitmap(bitmap, contentX, (bt.win.Height-bitmap.Height)/2, fg, bg)
		}
		return
	}
	text := bt.cv.Get("-text")
	if text == "" {
		return
	}
	gc := bt.app.GC(fg, bg, 1, bt.fontID())
	var x int
	if bt.kind == kindCheck || bt.kind == kindRadio {
		x = contentX
	} else {
		switch bt.cv.Get("-anchor") {
		case "w", "nw", "sw":
			x = contentX
		case "e", "ne", "se":
			x = bt.win.Width - bd - bt.cv.GetInt("-padx", 4) - bt.font.TextWidth(text)
		default:
			x = (bt.win.Width - bt.font.TextWidth(text)) / 2
		}
	}
	y := (bt.win.Height+bt.font.Ascent-bt.font.Descent)/2 + bt.font.Descent/2
	bt.app.Disp.DrawString(bt.win.XID, gc, x, y, text)
}

// drawBitmap renders a cached bitmap pattern in the foreground color.
func (bt *Button) drawBitmap(bm *tk.Bitmap, x, y int, fg, bg uint32) {
	gc := bt.app.GC(fg, bg, 1, bt.fontID())
	var pts []xproto.Rect
	for yy := 0; yy < bm.Height; yy++ {
		for xx := 0; xx < bm.Width; xx++ {
			if bm.Rows[yy*bm.Width+xx] {
				pts = append(pts, xproto.Rect{X: int16(x + xx), Y: int16(y + yy), W: 1, H: 1})
			}
		}
	}
	if len(pts) > 0 {
		bt.app.Disp.Request(&xproto.PolyFillRectangleReq{Drawable: bt.win.XID, Gc: gc, Rects: pts})
	}
}
