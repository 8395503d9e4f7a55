package widget

import (
	"fmt"
	"strconv"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Entry implements the Entry class: a one-line editable text field. The
// paper notes entries were one of the last two widgets to be written; the
// behaviour here covers typing, backspace, cursor motion, click-to-
// position, focus claiming and the Tcl editing commands — enough that the
// paper's §5 example (backspace-over-word via a user binding) works,
// because the contents can be fetched and modified from Tcl.
type Entry struct {
	base
	text    string
	icursor int // insertion point, 0..len(text)
	selFrom int
	selTo   int
}

// entrySpecs is the Entry option table, built once on first use.
var entrySpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs("White")
	for i := range specs {
		if specs[i].Name == "-relief" {
			specs[i].Default = "sunken"
		}
	}
	return append(specs,
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "20"},
		tk.OptionSpec{Name: "-textvariable", DBName: "textVariable", DBClass: "Variable", Default: ""},
		tk.OptionSpec{Name: "-selectbackground", DBName: "selectBackground", DBClass: "Foreground", Default: DefSelectBackground},
	)
}}

func registerEntry(app *tk.App) {
	app.Interp.Register("entry", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "entry pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Entry", entrySpecs.get(), false)
		if err != nil {
			return "", err
		}
		e := &Entry{base: *b, selFrom: -1}
		e.win.Widget = e
		e.geomAndExposure()
		e.bindBehaviour()
		app.SetSelectionHandler(e.win, func() string { return e.Selected() })
		res, err := e.install(e, args[2:])
		if err != nil {
			return "", err
		}
		e.watchVariable()
		return res, nil
	})
}

// watchVariable links the entry with -textvariable in both directions.
func (e *Entry) watchVariable() {
	name := e.cv.Get("-textvariable")
	if name == "" {
		return
	}
	if v, err := e.app.Interp.GetGlobal(name); err == nil {
		e.setText(v, false)
	}
	e.app.Interp.TraceGlobal(name, "w", func(*tcl.Interp, string, string, string) {
		if e.win.Destroyed {
			return
		}
		if v, err := e.app.Interp.GetGlobal(name); err == nil && v != e.text {
			e.setText(v, false)
		}
	})
}

// setText replaces the entry contents; when fromEdit is true the
// -textvariable is updated.
func (e *Entry) setText(t string, fromEdit bool) {
	e.text = t
	if e.icursor > len(t) {
		e.icursor = len(t)
	}
	if fromEdit {
		if name := e.cv.Get("-textvariable"); name != "" {
			_, _ = e.app.Interp.SetGlobal(name, t)
		}
	}
	e.win.ScheduleRedraw()
}

// Selected returns the selected substring.
func (e *Entry) Selected() string {
	if e.selFrom < 0 || e.selFrom >= e.selTo || e.selTo > len(e.text) {
		return ""
	}
	return e.text[e.selFrom:e.selTo]
}

// indexAt converts an x pixel coordinate to a character index.
func (e *Entry) indexAt(x int) int {
	bd := e.cv.GetInt("-borderwidth", 2)
	rel := x - bd - 3
	cw := e.font.TextWidth("0")
	if cw < 1 {
		cw = 1
	}
	i := (rel + cw/2) / cw
	if i < 0 {
		i = 0
	}
	if i > len(e.text) {
		i = len(e.text)
	}
	return i
}

func (e *Entry) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.KeyPressMask
	e.win.AddEventHandler(mask, func(ev *xproto.Event) {
		switch int(ev.Type) {
		case xproto.ButtonPress:
			if ev.Detail == 1 {
				e.icursor = e.indexAt(int(ev.X))
				e.selFrom = -1
				e.app.Disp.SetInputFocus(e.win.XID)
				e.win.ScheduleRedraw()
			}
		case xproto.KeyPress:
			e.handleKey(ev)
		}
	})
}

func (e *Entry) handleKey(ev *xproto.Event) {
	switch ev.Keysym {
	case xproto.KsBackSpace:
		if e.icursor > 0 {
			e.icursor--
			e.setText(e.text[:e.icursor]+e.text[e.icursor+1:], true)
		}
	case xproto.KsDelete:
		if e.icursor < len(e.text) {
			e.setText(e.text[:e.icursor]+e.text[e.icursor+1:], true)
		}
	case xproto.KsLeft:
		if e.icursor > 0 {
			e.icursor--
			e.win.ScheduleRedraw()
		}
	case xproto.KsRight:
		if e.icursor < len(e.text) {
			e.icursor++
			e.win.ScheduleRedraw()
		}
	case xproto.KsHome:
		e.icursor = 0
		e.win.ScheduleRedraw()
	case xproto.KsEnd:
		e.icursor = len(e.text)
		e.win.ScheduleRedraw()
	default:
		if ev.State&xproto.ControlMask != 0 {
			return // control combinations are left to user bindings (§5)
		}
		ch := xproto.KeysymRune(ev.Keysym, ev.State)
		if ch == "" || ch == "\n" || ch == "\t" {
			return
		}
		e.setText(e.text[:e.icursor]+ch+e.text[e.icursor:], true)
		e.icursor++
	}
}

// recompute implements subcommander.
func (e *Entry) recompute() error {
	if err := e.resolve(); err != nil {
		return err
	}
	bd := e.cv.GetInt("-borderwidth", 2)
	chars := e.cv.GetInt("-width", 20)
	e.win.GeometryRequest(chars*e.font.TextWidth("0")+2*bd+6, e.font.LineHeight()+2*bd+6)
	e.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (e *Entry) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "get":
		return e.text, nil
	case "insert":
		if len(args) != 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s insert index string"`, e.win.Path)
		}
		i, err := e.parseEntryIndex(args[0])
		if err != nil {
			return "", err
		}
		e.setText(e.text[:i]+args[1]+e.text[i:], true)
		if e.icursor >= i {
			e.icursor += len(args[1])
		}
		return "", nil
	case "delete":
		if len(args) < 1 || len(args) > 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s delete first ?last?"`, e.win.Path)
		}
		first, err := e.parseEntryIndex(args[0])
		if err != nil {
			return "", err
		}
		last := first + 1
		if len(args) == 2 {
			if last, err = e.parseEntryIndex(args[1]); err != nil {
				return "", err
			}
		}
		if last > len(e.text) {
			last = len(e.text)
		}
		if first < last {
			e.setText(e.text[:first]+e.text[last:], true)
			if e.icursor > first {
				e.icursor = first
			}
		}
		return "", nil
	case "icursor":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s icursor index"`, e.win.Path)
		}
		i, err := e.parseEntryIndex(args[0])
		if err != nil {
			return "", err
		}
		e.icursor = i
		e.win.ScheduleRedraw()
		return "", nil
	case "index":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s index index"`, e.win.Path)
		}
		i, err := e.parseEntryIndex(args[0])
		if err != nil {
			return "", err
		}
		return strconv.Itoa(i), nil
	case "select":
		if len(args) == 3 && args[0] == "range" {
			from, err1 := e.parseEntryIndex(args[1])
			to, err2 := e.parseEntryIndex(args[2])
			if err1 != nil || err2 != nil {
				return "", fmt.Errorf("bad select range")
			}
			e.selFrom, e.selTo = from, to
			e.app.OwnSelection(e.win, func(*tk.Window) {
				e.selFrom = -1
				e.win.ScheduleRedraw()
			})
			e.win.ScheduleRedraw()
			return "", nil
		}
		if len(args) == 1 && args[0] == "clear" {
			e.selFrom = -1
			e.win.ScheduleRedraw()
			return "", nil
		}
		return "", fmt.Errorf("bad select option")
	}
	return "", fmt.Errorf("bad option %q for entry", sub)
}

// parseEntryIndex handles numeric indices, "end" and "insert".
func (e *Entry) parseEntryIndex(s string) (int, error) {
	switch s {
	case "end":
		return len(e.text), nil
	case "insert":
		return e.icursor, nil
	case "sel.first":
		if e.selFrom < 0 {
			return 0, fmt.Errorf("selection isn't in entry")
		}
		return e.selFrom, nil
	case "sel.last":
		if e.selFrom < 0 {
			return 0, fmt.Errorf("selection isn't in entry")
		}
		return e.selTo, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad entry index %q", s)
	}
	if n < 0 {
		n = 0
	}
	if n > len(e.text) {
		n = len(e.text)
	}
	return n, nil
}

// Redraw implements tk.Widget.
func (e *Entry) Redraw() {
	if e.win.Destroyed {
		return
	}
	e.clear(e.bg)
	bd := e.cv.GetInt("-borderwidth", 2)
	e.draw3DBorder(0, 0, e.win.Width, e.win.Height, bd, e.bg, e.cv.Get("-relief"))
	d := e.app.Disp
	x := bd + 3
	baseline := (e.win.Height+e.font.Ascent-e.font.Descent)/2 + e.font.Descent/2
	cw := e.font.TextWidth("0")
	// Selection highlight.
	if e.selFrom >= 0 && e.selFrom < e.selTo {
		selBG, _ := e.app.Color(e.cv.Get("-selectbackground"))
		gcSel := e.app.GC(selBG, selBG, 1, e.fontID())
		d.FillRectangle(e.win.XID, gcSel, x+e.selFrom*cw, baseline-e.font.Ascent,
			(e.selTo-e.selFrom)*cw, e.font.LineHeight())
	}
	gc := e.app.GC(e.fg, e.bg, 1, e.fontID())
	d.DrawString(e.win.XID, gc, x, baseline, e.text)
	// Insertion cursor.
	cx := x + e.icursor*cw
	d.FillRectangle(e.win.XID, gc, cx, baseline-e.font.Ascent, 1, e.font.LineHeight())
}
