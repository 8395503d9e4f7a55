package widget

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Listbox implements the Listbox class: a scrollable list of text items
// with selection support. Its interface matches the paper's Figure 9
// usage: created with "-scroll {.scroll set}" so it keeps an associated
// scrollbar current, scrolled with ".list view 40" (the command the
// scrollbar synthesizes), filled with ".list insert end item", and read
// through the X selection ("selection get").
type Listbox struct {
	base

	items  []string
	top    int // first visible item
	scroll scrollView

	selFirst, selLast int // selected range, -1 when empty
	anchor            int
}

// listboxSpecs is the Listbox option table, built once on first use.
var listboxSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	return append(specs,
		tk.OptionSpec{Name: "-scroll", DBName: "scrollCommand", DBClass: "ScrollCommand", Default: ""},
		tk.OptionSpec{Name: "-yscroll", Synonym: "-scroll"},
		tk.OptionSpec{Name: "-geometry", DBName: "geometry", DBClass: "Geometry", Default: "15x10"},
		tk.OptionSpec{Name: "-selectbackground", DBName: "selectBackground", DBClass: "Foreground", Default: DefSelectBackground},
	)
}}

func createListbox(app *tk.App, args []string, rows []tcl.Row) (string, error) {
	b, err := newBase(app, args[1], "Listbox", listboxSpecs.get(), false)
	if err != nil {
		return "", err
	}
	lb := &Listbox{base: *b, selFirst: -1, selLast: -1}
	lb.scroll = scrollView{b: &lb.base, view: func() (int, int, int) { return len(lb.items), lb.linesVisible(), lb.top }}
	lb.win.Widget = lb
	lb.geomAndExposure()
	lb.bindBehaviour()
	// A resize changes how many lines are visible; keep the attached
	// scrollbar current.
	lb.win.AddEventHandler(xproto.StructureNotifyMask, func(ev *xproto.Event) {
		if ev.Type == xproto.ConfigureNotify {
			lb.scroll.changed()
		}
	})
	// The selection handler (§3.6): returns the selected items, one
	// per line.
	app.SetSelectionHandler(lb.win, func() string {
		return strings.Join(lb.SelectedItems(), "\n")
	})
	return lb.install(lb, rows, args[2:])
}

// listboxRows returns the subcommand rows of a listbox, bound to app.
func listboxRows(app *tk.App) []tcl.Row {
	view := on(app, func(lb *Listbox, args []string) (string, error) {
		i, err := parseIndex(args[0], len(lb.items)-1)
		if err != nil {
			return "", err
		}
		lb.View(i)
		return "", nil
	})
	// selectFrom selects item args[1] alone and makes it the anchor.
	selectFrom := on(app, func(lb *Listbox, args []string) (string, error) {
		i, err := parseIndex(args[1], len(lb.items)-1)
		if err != nil {
			return "", err
		}
		lb.anchor = i
		lb.selFirst, lb.selLast = i, i
		lb.claimSelection()
		lb.win.ScheduleRedraw()
		return "", nil
	})
	return []tcl.Row{
		configure(app),
		{Name: "curselection", Fn: on(app, func(lb *Listbox, _ []string) (string, error) {
			var out []string
			if lb.selFirst >= 0 {
				for i := lb.selFirst; i <= lb.selLast && i < len(lb.items); i++ {
					out = append(out, strconv.Itoa(i))
				}
			}
			return strings.Join(out, " "), nil
		})},
		{Name: "delete", Fn: on(app, func(lb *Listbox, args []string) (string, error) {
			first, err := parseIndex(args[0], len(lb.items)-1)
			if err != nil {
				return "", err
			}
			last := first
			if len(args) == 2 {
				if last, err = parseIndex(args[1], len(lb.items)-1); err != nil {
					return "", err
				}
			}
			if first < 0 {
				first = 0
			}
			if last >= len(lb.items) {
				last = len(lb.items) - 1
			}
			if first <= last {
				lb.items = append(lb.items[:first], lb.items[last+1:]...)
				lb.selFirst, lb.selLast = -1, -1
				lb.View(lb.top)
			}
			return "", nil
		}), Min: 1, Max: 2, Usage: "first ?last?"},
		{Name: "get", Fn: on(app, func(lb *Listbox, args []string) (string, error) {
			i, err := parseIndex(args[0], len(lb.items)-1)
			if err != nil {
				return "", err
			}
			if i < 0 || i >= len(lb.items) {
				return "", fmt.Errorf("index %q out of range", args[0])
			}
			return lb.items[i], nil
		}), Min: 1, Max: 1, Usage: "index"},
		{Name: "insert", Fn: on(app, func(lb *Listbox, args []string) (string, error) {
			i, err := parseIndex(args[0], len(lb.items))
			if err != nil {
				return "", err
			}
			if i < 0 {
				i = 0
			}
			if i > len(lb.items) {
				i = len(lb.items)
			}
			items := append([]string{}, lb.items[:i]...)
			items = append(items, args[1:]...)
			items = append(items, lb.items[i:]...)
			lb.items = items
			lb.scroll.changed()
			lb.win.ScheduleRedraw()
			return "", nil
		}), Min: 1, Max: -1, Usage: "index ?element ...?"},
		{Name: "nearest", Fn: on(app, func(lb *Listbox, args []string) (string, error) {
			y, err := strconv.Atoi(args[0])
			if err != nil {
				return "", fmt.Errorf("expected integer but got %q", args[0])
			}
			return strconv.Itoa(lb.indexAt(y)), nil
		}), Min: 1, Max: 1, Usage: "y"},
		{Name: "select", Min: 1, Max: 2, Usage: "option ?index?", Subs: []tcl.Row{
			{Name: "clear", Fn: on(app, func(lb *Listbox, _ []string) (string, error) {
				lb.selFirst, lb.selLast = -1, -1
				lb.win.ScheduleRedraw()
				return "", nil
			})},
			{Name: "from", Fn: selectFrom, Min: 1, Max: 1, Usage: "index"},
			{Name: "set", Fn: selectFrom, Min: 1, Max: 1, Usage: "index"},
			{Name: "to", Fn: on(app, func(lb *Listbox, args []string) (string, error) {
				i, err := parseIndex(args[1], len(lb.items)-1)
				if err != nil {
					return "", err
				}
				lb.extendTo(i)
				lb.win.ScheduleRedraw()
				return "", nil
			}), Min: 1, Max: 1, Usage: "index"},
		}},
		{Name: "size", Fn: on(app, func(lb *Listbox, _ []string) (string, error) { return strconv.Itoa(len(lb.items)), nil })},
		{Name: "view", Fn: view, Min: 1, Max: 1, Usage: "index"},
		{Name: "yview", Fn: view, Min: 1, Max: 1, Usage: "index"},
	}
}

// linesVisible returns how many items fit in the window.
func (lb *Listbox) linesVisible() int {
	bd := lb.cv.GetInt("-borderwidth", 2)
	lh := lb.font.LineHeight() + 2
	n := (lb.win.Height - 2*bd) / lh
	if n < 1 {
		n = 1
	}
	return n
}

// indexAt converts a y pixel coordinate to an item index (clamped).
func (lb *Listbox) indexAt(y int) int {
	bd := lb.cv.GetInt("-borderwidth", 2)
	lh := lb.font.LineHeight() + 2
	i := lb.top + (y-bd)/lh
	if i < 0 {
		i = 0
	}
	if i >= len(lb.items) {
		i = len(lb.items) - 1
	}
	return i
}

func (lb *Listbox) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.ButtonMotionMask
	lb.win.AddEventHandler(mask, func(ev *xproto.Event) {
		if len(lb.items) == 0 {
			return
		}
		switch int(ev.Type) {
		case xproto.ButtonPress:
			if ev.Detail != 1 {
				return
			}
			i := lb.indexAt(int(ev.Y))
			if ev.State&xproto.ShiftMask != 0 && lb.selFirst >= 0 {
				lb.extendTo(i)
			} else {
				lb.anchor = i
				lb.selFirst, lb.selLast = i, i
				lb.claimSelection()
			}
			lb.win.ScheduleRedraw()
		case xproto.MotionNotify:
			if ev.State&xproto.Button1Mask != 0 {
				lb.extendTo(lb.indexAt(int(ev.Y)))
				lb.win.ScheduleRedraw()
			}
		}
	})
}

func (lb *Listbox) extendTo(i int) {
	if i < lb.anchor {
		lb.selFirst, lb.selLast = i, lb.anchor
	} else {
		lb.selFirst, lb.selLast = lb.anchor, i
	}
	lb.claimSelection()
}

func (lb *Listbox) claimSelection() {
	lb.app.OwnSelection(lb.win, func(*tk.Window) {
		// Lost the selection to someone else: deselect.
		lb.selFirst, lb.selLast = -1, -1
		lb.win.ScheduleRedraw()
	})
}

// SelectedItems returns the currently selected items.
func (lb *Listbox) SelectedItems() []string {
	if lb.selFirst < 0 {
		return nil
	}
	first, last := lb.selFirst, lb.selLast
	if first < 0 {
		first = 0
	}
	if last >= len(lb.items) {
		last = len(lb.items) - 1
	}
	out := make([]string, 0, last-first+1)
	for i := first; i <= last; i++ {
		out = append(out, lb.items[i])
	}
	return out
}

// View scrolls so that item index appears at the top (the ".list view
// 40" command of §4).
func (lb *Listbox) View(index int) {
	lb.top = clampTop(index, len(lb.items), lb.linesVisible())
	lb.scroll.changed()
	lb.win.ScheduleRedraw()
}

// recompute implements widget.
func (lb *Listbox) recompute() error {
	if err := lb.resolve(); err != nil {
		return err
	}
	cols, rows := 15, 10
	if g := lb.cv.Get("-geometry"); g != "" {
		var ok bool
		if cols, rows, ok = tk.ParsePair(g, "x"); !ok {
			return fmt.Errorf("bad geometry %q: expected WIDTHxHEIGHT", g)
		}
	}
	bd := lb.cv.GetInt("-borderwidth", 2)
	w := cols*lb.font.TextWidth("0") + 2*bd + 6
	h := rows*(lb.font.LineHeight()+2) + 2*bd
	lb.win.GeometryRequest(w, h)
	lb.win.ScheduleRedraw()
	lb.scroll.changed()
	return nil
}

// Redraw implements tk.Widget.
func (lb *Listbox) Redraw() {
	if lb.win.Destroyed {
		return
	}
	lb.clear(lb.bg)
	bd := lb.cv.GetInt("-borderwidth", 2)
	lh := lb.font.LineHeight() + 2
	selBG := lb.bg
	if px, err := lb.app.Color(lb.cv.Get("-selectbackground")); err == nil {
		selBG = px
	}
	d := lb.app.Disp
	visible := lb.linesVisible()
	for row := 0; row < visible; row++ {
		i := lb.top + row
		if i >= len(lb.items) {
			break
		}
		y := bd + row*lh
		bg := lb.bg
		if lb.selFirst >= 0 && i >= lb.selFirst && i <= lb.selLast {
			bg = selBG
			gcSel := lb.app.GC(bg, bg, 1, lb.fontID())
			d.FillRectangle(lb.win.XID, gcSel, bd, y, lb.win.Width-2*bd, lh)
		}
		gc := lb.app.GC(lb.fg, bg, 1, lb.fontID())
		d.DrawString(lb.win.XID, gc, bd+3, y+lb.font.Ascent+1, lb.items[i])
	}
	lb.draw3DBorder(0, 0, lb.win.Width, lb.win.Height, bd, lb.bg, lb.cv.Get("-relief"))
}
