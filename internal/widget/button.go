package widget

import (
	"fmt"
	"slices"
	"strings"
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
}

// indicatorSize is the side of a check or radio button's indicator.
const indicatorSize = 11

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

// createButton returns the creation procedure of one kind of button.
func createButton(kind int) func(*tk.App, []string, []tcl.Row) (string, error) {
	return func(app *tk.App, args []string, rows []tcl.Row) (string, error) {
		b, err := newBase(app, args[1], classFor(kind), buttonSpecs[kind].get(), false)
		if err != nil {
			return "", err
		}
		bt := &Button{base: *b, kind: kind}
		bt.win.Widget = bt
		bt.geomAndExposure()
		if kind != kindLabel {
			bt.bindBehaviour()
		}
		return bt.install(bt, rows, args[2:])
	}
}

// buttonRows returns the function that returns the subcommand rows of
// one kind of button, as Tk 3 has them: a label has only configure.
func buttonRows(kind int) func(*tk.App) []tcl.Row {
	return func(app *tk.App) []tcl.Row {
		if kind == kindLabel {
			return configureOnly(app)
		}
		// do returns the procedure of a subcommand that takes no
		// argument and returns nothing.
		do := func(fn func(bt *Button)) tcl.CmdFunc {
			return on(app, func(bt *Button, _ []string) (string, error) {
				fn(bt)
				return "", nil
			})
		}
		rows := []tcl.Row{
			{Name: "activate", Fn: do(func(bt *Button) { bt.setActive(true) })},
			configure(app),
			{Name: "deactivate", Fn: do(func(bt *Button) { bt.setActive(false) })},
			{Name: "flash", Fn: do((*Button).Flash)},
			{Name: "invoke", Fn: do((*Button).Invoke)},
		}
		switch kind {
		case kindCheck:
			rows = append(rows,
				tcl.Row{Name: "deselect", Fn: do(func(bt *Button) { bt.setVariable(bt.cv.Get("-offvalue")) })},
				tcl.Row{Name: "select", Fn: do(func(bt *Button) { bt.setVariable(bt.cv.Get("-onvalue")) })},
				tcl.Row{Name: "toggle", Fn: do((*Button).toggle)})
		case kindRadio:
			rows = append(rows,
				tcl.Row{Name: "deselect", Fn: do(func(bt *Button) {
					if bt.on {
						bt.setVariable("")
					}
				})},
				tcl.Row{Name: "select", Fn: do(func(bt *Button) { bt.setVariable(bt.radioValue()) })})
		}
		slices.SortFunc(rows, func(a, b tcl.Row) int { return strings.Compare(a.Name, b.Name) })
		return rows
	}
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

// showVariable sets a check or radio button's indicator from its
// variable's value, which other widgets or scripts may have changed.
func (bt *Button) showVariable() {
	v, err := bt.app.Interp.GetGlobal(bt.cv.Get("-variable"))
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
		bt.toggle()
	case kindRadio:
		bt.setVariable(bt.radioValue())
	}
	bt.eval(fmt.Sprintf("command bound to %s", bt.win.Path), bt.cv.Get("-command"))
}

// toggle flips a check button's variable between -onvalue and
// -offvalue; unlike Invoke it runs no -command, as in Tk.
func (bt *Button) toggle() {
	if bt.on {
		bt.setVariable(bt.cv.Get("-offvalue"))
	} else {
		bt.setVariable(bt.cv.Get("-onvalue"))
	}
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

// recompute implements widget.
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
		w += indicatorSize + 6
		bt.linkVariable(bt.cv.Get("-variable"), bt.showVariable)
	}
	bt.win.GeometryRequest(w+2*padX+2*bd, h+2*padY+2*bd)
	bt.win.ScheduleRedraw()
	return nil
}

// setActive highlights the button, or with on false, stops.
func (bt *Button) setActive(on bool) {
	bt.active = on
	bt.win.ScheduleRedraw()
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
		size := indicatorSize
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
