package widget

import (
	"fmt"
	"strconv"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Menu and Menubutton implement pull-down menus. A menu is a top-level
// window (ignored by the window manager) holding a column of entries;
// each entry carries a Tcl command, exactly like a button (§4). A
// menubutton posts its associated menu below itself when pressed;
// releasing or clicking over an entry invokes it.

type menuEntry struct {
	kind     string // "command", "checkbutton", "radiobutton", "separator"
	label    string
	command  string
	variable string
	onValue  string
	offValue string
	value    string
}

// Menu implements the Menu class.
type Menu struct {
	base
	entries []menuEntry
	active  int // highlighted entry, -1 none
	posted  bool
}

// menuSpecs is the Menu option table, built once on first use.
var menuSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	for i := range specs {
		if specs[i].Name == "-relief" {
			specs[i].Default = "raised"
		}
	}
	return append(specs,
		tk.OptionSpec{Name: "-activebackground", DBName: "activeBackground", DBClass: "Foreground", Default: DefActiveBackground},
	)
}}

func registerMenu(app *tk.App) {
	app.Interp.Register("menu", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "menu pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Menu", menuSpecs.get(), true)
		if err != nil {
			return "", err
		}
		m := &Menu{base: *b, active: -1}
		m.win.Widget = m
		m.geomAndExposure()
		m.bindBehaviour()
		// Menus are override-redirect: no WM decoration.
		m.win.SetOverrideRedirect(true)
		return m.install(m, args[2:])
	})
	registerMenubutton(app)
}

const menuEntryPad = 3

func (m *Menu) entryHeight() int { return m.font.LineHeight() + 2*menuEntryPad }

// entryAt maps a y coordinate within the menu to an entry index.
func (m *Menu) entryAt(y int) int {
	bd := m.cv.GetInt("-borderwidth", 2)
	i := (y - bd) / m.entryHeight()
	if i < 0 || i >= len(m.entries) {
		return -1
	}
	if m.entries[i].kind == "separator" {
		return -1
	}
	return i
}

func (m *Menu) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.ButtonReleaseMask |
		xproto.PointerMotionMask | xproto.LeaveWindowMask
	m.win.AddEventHandler(mask, func(ev *xproto.Event) {
		switch int(ev.Type) {
		case xproto.MotionNotify:
			if i := m.entryAt(int(ev.Y)); i != m.active {
				m.active = i
				m.win.ScheduleRedraw()
			}
		case xproto.LeaveNotify:
			if m.active != -1 {
				m.active = -1
				m.win.ScheduleRedraw()
			}
		case xproto.ButtonPress, xproto.ButtonRelease:
			if int(ev.Type) == xproto.ButtonRelease {
				if i := m.entryAt(int(ev.Y)); i >= 0 {
					m.Unpost()
					m.InvokeEntry(i)
				}
			}
		}
	})
}

// Post displays the menu with its top-left corner at root coordinates.
func (m *Menu) Post(x, y int) {
	m.win.MoveToplevel(x, y)
	m.posted = true
	m.win.Map()
	m.app.Disp.RaiseWindow(m.win.XID)
	m.win.ScheduleRedraw()
}

// Unpost hides the menu.
func (m *Menu) Unpost() {
	m.posted = false
	m.active = -1
	m.win.Unmap()
}

// InvokeEntry runs an entry's action.
func (m *Menu) InvokeEntry(i int) {
	if i < 0 || i >= len(m.entries) {
		return
	}
	en := &m.entries[i]
	switch en.kind {
	case "checkbutton":
		cur, _ := m.app.Interp.GetGlobal(en.variable)
		if cur == en.onValue {
			_, _ = m.app.Interp.SetGlobal(en.variable, en.offValue)
		} else {
			_, _ = m.app.Interp.SetGlobal(en.variable, en.onValue)
		}
	case "radiobutton":
		_, _ = m.app.Interp.SetGlobal(en.variable, en.value)
	}
	m.eval(fmt.Sprintf("menu entry %d of %s", i, m.win.Path), en.command)
}

// recompute implements subcommander.
func (m *Menu) recompute() error {
	if err := m.resolve(); err != nil {
		return err
	}
	bd := m.cv.GetInt("-borderwidth", 2)
	maxW := 40
	for _, en := range m.entries {
		if w := m.font.TextWidth(en.label) + 24; w > maxW {
			maxW = w
		}
	}
	h := len(m.entries)*m.entryHeight() + 2*bd
	if h < 10 {
		h = 10
	}
	m.win.GeometryRequest(maxW+2*bd, h)
	m.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (m *Menu) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "add":
		if len(args) < 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s add type ?options?"`, m.win.Path)
		}
		en := menuEntry{kind: args[0], onValue: "1", offValue: "0"}
		switch en.kind {
		case "command", "checkbutton", "radiobutton", "separator":
		default:
			return "", fmt.Errorf("bad menu entry type %q", args[0])
		}
		rest := args[1:]
		if len(rest)%2 != 0 {
			return "", fmt.Errorf("value for %q missing", rest[len(rest)-1])
		}
		for i := 0; i < len(rest); i += 2 {
			switch rest[i] {
			case "-label":
				en.label = rest[i+1]
			case "-command":
				en.command = rest[i+1]
			case "-variable":
				en.variable = rest[i+1]
			case "-onvalue":
				en.onValue = rest[i+1]
			case "-offvalue":
				en.offValue = rest[i+1]
			case "-value":
				en.value = rest[i+1]
			default:
				return "", fmt.Errorf("unknown menu entry option %q", rest[i])
			}
		}
		m.entries = append(m.entries, en)
		return "", m.recompute()
	case "delete":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s delete index"`, m.win.Path)
		}
		i, err := parseIndex(args[0], len(m.entries)-1)
		if err != nil || i < 0 || i >= len(m.entries) {
			return "", fmt.Errorf("bad menu entry index %q", args[0])
		}
		m.entries = append(m.entries[:i], m.entries[i+1:]...)
		return "", m.recompute()
	case "entrycount":
		return strconv.Itoa(len(m.entries)), nil
	case "invoke":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s invoke index"`, m.win.Path)
		}
		i, err := parseIndex(args[0], len(m.entries)-1)
		if err != nil {
			return "", err
		}
		m.InvokeEntry(i)
		return "", nil
	case "activate":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s activate index"`, m.win.Path)
		}
		i, err := parseIndex(args[0], len(m.entries)-1)
		if err != nil {
			return "", err
		}
		m.active = i
		m.win.ScheduleRedraw()
		return "", nil
	case "post":
		if len(args) != 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s post x y"`, m.win.Path)
		}
		x, err1 := strconv.Atoi(args[0])
		y, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("expected integer coordinates")
		}
		m.Post(x, y)
		return "", nil
	case "unpost":
		m.Unpost()
		return "", nil
	case "entrylabel":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s entrylabel index"`, m.win.Path)
		}
		i, err := parseIndex(args[0], len(m.entries)-1)
		if err != nil || i < 0 || i >= len(m.entries) {
			return "", fmt.Errorf("bad menu entry index %q", args[0])
		}
		return m.entries[i].label, nil
	}
	return "", fmt.Errorf("bad option %q for menu", sub)
}

// Redraw implements tk.Widget.
func (m *Menu) Redraw() {
	if m.win.Destroyed {
		return
	}
	m.clear(m.bg)
	bd := m.cv.GetInt("-borderwidth", 2)
	m.draw3DBorder(0, 0, m.win.Width, m.win.Height, bd, m.bg, m.cv.Get("-relief"))
	d := m.app.Disp
	y := bd
	eh := m.entryHeight()
	for i, en := range m.entries {
		if en.kind == "separator" {
			gc := m.app.GC(shade(m.bg, 0.6), m.bg, 1, m.fontID())
			d.FillRectangle(m.win.XID, gc, bd+2, y+eh/2, m.win.Width-2*bd-4, 1)
			y += eh
			continue
		}
		bg := m.bg
		if i == m.active {
			if px, err := m.app.Color(m.cv.Get("-activebackground")); err == nil {
				bg = px
				gcA := m.app.GC(bg, bg, 1, m.fontID())
				d.FillRectangle(m.win.XID, gcA, bd, y, m.win.Width-2*bd, eh)
			}
		}
		// Indicator state for check/radio entries.
		label := en.label
		if en.kind == "checkbutton" || en.kind == "radiobutton" {
			cur, _ := m.app.Interp.GetGlobal(en.variable)
			on := (en.kind == "checkbutton" && cur == en.onValue) ||
				(en.kind == "radiobutton" && cur == en.value)
			if on {
				label = "* " + label
			} else {
				label = "  " + label
			}
		}
		gc := m.app.GC(m.fg, bg, 1, m.fontID())
		d.DrawString(m.win.XID, gc, bd+6, y+menuEntryPad+m.font.Ascent, label)
		y += eh
	}
}

// Menubutton implements the Menubutton class.
type Menubutton struct {
	base
	active bool
}

// menubuttonSpecs is the Menubutton option table, built once on first use.
var menubuttonSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	for i := range specs {
		if specs[i].Name == "-relief" {
			specs[i].Default = "raised"
		}
	}
	return append(specs,
		tk.OptionSpec{Name: "-text", DBName: "text", DBClass: "Text", Default: ""},
		tk.OptionSpec{Name: "-menu", DBName: "menu", DBClass: "Menu", Default: ""},
		tk.OptionSpec{Name: "-activebackground", DBName: "activeBackground", DBClass: "Foreground", Default: DefActiveBackground},
		tk.OptionSpec{Name: "-padx", DBName: "padX", DBClass: "Pad", Default: "4"},
		tk.OptionSpec{Name: "-pady", DBName: "padY", DBClass: "Pad", Default: "2"},
	)
}}

func registerMenubutton(app *tk.App) {
	app.Interp.Register("menubutton", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "menubutton pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Menubutton", menubuttonSpecs.get(), false)
		if err != nil {
			return "", err
		}
		mb := &Menubutton{base: *b}
		mb.win.Widget = mb
		mb.geomAndExposure()
		mb.bindBehaviour()
		return mb.install(mb, args[2:])
	})
}

// menu resolves the associated Menu widget.
func (mb *Menubutton) menu() *Menu {
	path := mb.cv.Get("-menu")
	if path == "" {
		return nil
	}
	w, err := mb.app.NameToWindow(path)
	if err != nil {
		return nil
	}
	m, _ := w.Widget.(*Menu)
	return m
}

func (mb *Menubutton) bindBehaviour() {
	mask := xproto.EnterWindowMask | xproto.LeaveWindowMask |
		xproto.ButtonPressMask | xproto.ButtonReleaseMask
	mb.win.AddEventHandler(mask, func(ev *xproto.Event) {
		switch int(ev.Type) {
		case xproto.EnterNotify:
			mb.active = true
			mb.win.ScheduleRedraw()
		case xproto.LeaveNotify:
			mb.active = false
			mb.win.ScheduleRedraw()
		case xproto.ButtonPress:
			if ev.Detail != 1 {
				return
			}
			m := mb.menu()
			if m == nil {
				return
			}
			if m.posted {
				m.Unpost()
				return
			}
			rx, ry := mb.win.RootCoords()
			m.Post(rx, ry+mb.win.Height)
		case xproto.ButtonRelease:
			m := mb.menu()
			if m == nil || !m.posted {
				return
			}
			// Drag-release over the posted menu invokes the entry under
			// the pointer (classic pull-down behaviour under the
			// implicit grab).
			mx := int(ev.RootX) - m.win.X
			my := int(ev.RootY) - m.win.Y
			if mx >= 0 && my >= 0 && mx < m.win.Width && my < m.win.Height {
				if i := m.entryAt(my); i >= 0 {
					m.Unpost()
					m.InvokeEntry(i)
				}
			}
		}
	})
}

// recompute implements subcommander.
func (mb *Menubutton) recompute() error {
	if err := mb.resolve(); err != nil {
		return err
	}
	bd := mb.cv.GetInt("-borderwidth", 2)
	text := mb.cv.Get("-text")
	mb.win.GeometryRequest(
		mb.font.TextWidth(text)+2*mb.cv.GetInt("-padx", 4)+2*bd,
		mb.font.LineHeight()+2*mb.cv.GetInt("-pady", 2)+2*bd)
	mb.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (mb *Menubutton) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "post":
		if m := mb.menu(); m != nil {
			rx, ry := mb.win.RootCoords()
			m.Post(rx, ry+mb.win.Height)
		}
		return "", nil
	case "unpost":
		if m := mb.menu(); m != nil {
			m.Unpost()
		}
		return "", nil
	}
	return "", fmt.Errorf("bad option %q for menubutton", sub)
}

// Redraw implements tk.Widget.
func (mb *Menubutton) Redraw() {
	if mb.win.Destroyed {
		return
	}
	bg := mb.bg
	if mb.active {
		if px, err := mb.app.Color(mb.cv.Get("-activebackground")); err == nil {
			bg = px
		}
	}
	mb.clear(bg)
	bd := mb.cv.GetInt("-borderwidth", 2)
	mb.draw3DBorder(0, 0, mb.win.Width, mb.win.Height, bd, bg, mb.cv.Get("-relief"))
	mb.drawCenteredText(mb.cv.Get("-text"), mb.fg, bg)
}
