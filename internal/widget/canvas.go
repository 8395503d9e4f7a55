package widget

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Canvas implements the drawing surface the paper lists as planned work
// for wish (§5: "I plan to enhance wish with drawing commands for shapes
// and text; once this is done it will be possible to code a large class
// of interesting applications entirely in Tcl"). It is a structured
// graphics widget: items (lines, rectangles, ovals, polygons, text) are
// created and manipulated from Tcl, identified by integer ids and
// free-form tags, and individual items can have their own event bindings
// — which is exactly the hook the paper's hypertext sketch needs
// ("associating Tcl commands with pieces of text or graphics").
type Canvas struct {
	base
	items  []*canvasItem
	nextID int
	// itemBindings: tag or id → event spec → script.
	itemBindings map[string]map[string]string
	current      *canvasItem // item under the pointer
}

type canvasItem struct {
	id     int
	kind   string // "line", "rectangle", "oval", "polygon", "text"
	coords []int  // pairs
	fill   string
	width  int // line width
	text   string
	tags   []string
}

// canvasSpecs is the Canvas option table, built once on first use.
var canvasSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs("White")
	return append(specs,
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "200"},
		tk.OptionSpec{Name: "-height", DBName: "height", DBClass: "Height", Default: "150"},
	)
}}

func registerCanvas(app *tk.App) {
	app.Interp.Register("canvas", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "canvas pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Canvas", canvasSpecs.get(), false)
		if err != nil {
			return "", err
		}
		c := &Canvas{base: *b, itemBindings: make(map[string]map[string]string)}
		c.win.Widget = c
		c.geomAndExposure()
		c.bindBehaviour()
		return c.install(c, args[2:])
	})
}

// hasTag reports whether the item matches a tag or id spec.
func (it *canvasItem) hasTag(spec string) bool {
	if spec == "all" {
		return true
	}
	if n, err := strconv.Atoi(spec); err == nil {
		return it.id == n
	}
	for _, t := range it.tags {
		if t == spec {
			return true
		}
	}
	return false
}

// bbox returns the item's bounding box.
func (it *canvasItem) bbox() (x0, y0, x1, y1 int) {
	if len(it.coords) < 2 {
		return 0, 0, 0, 0
	}
	x0, y0 = it.coords[0], it.coords[1]
	x1, y1 = x0, y0
	for i := 0; i+1 < len(it.coords); i += 2 {
		x0 = min(x0, it.coords[i])
		x1 = max(x1, it.coords[i])
		y0 = min(y0, it.coords[i+1])
		y1 = max(y1, it.coords[i+1])
	}
	return
}

// contains reports whether the point is on (or in) the item; text items
// use their rendered extent.
func (c *Canvas) contains(it *canvasItem, x, y int) bool {
	x0, y0, x1, y1 := it.bbox()
	switch it.kind {
	case "text":
		x1 = x0 + c.font.TextWidth(it.text)
		y1 = y0 + c.font.LineHeight()
	case "line":
		// Fatten thin lines for picking.
		pad := max(it.width, 3)
		x0, y0, x1, y1 = x0-pad, y0-pad, x1+pad, y1+pad
	}
	return x >= x0 && y >= y0 && x <= x1 && y <= y1
}

// itemAt returns the topmost item containing (x, y), or nil.
func (c *Canvas) itemAt(x, y int) *canvasItem {
	for i := len(c.items) - 1; i >= 0; i-- {
		if c.contains(c.items[i], x, y) {
			return c.items[i]
		}
	}
	return nil
}

// bindBehaviour delivers pointer events to per-item bindings.
func (c *Canvas) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.ButtonReleaseMask |
		xproto.PointerMotionMask | xproto.LeaveWindowMask
	c.win.AddEventHandler(mask, func(ev *xproto.Event) {
		switch int(ev.Type) {
		case xproto.MotionNotify:
			it := c.itemAt(int(ev.X), int(ev.Y))
			if it != c.current {
				if c.current != nil {
					c.fireItemBinding(c.current, "<Leave>", ev)
				}
				c.current = it
				if it != nil {
					c.fireItemBinding(it, "<Enter>", ev)
				}
			}
		case xproto.LeaveNotify:
			if c.current != nil {
				c.fireItemBinding(c.current, "<Leave>", ev)
				c.current = nil
			}
		case xproto.ButtonPress:
			if it := c.itemAt(int(ev.X), int(ev.Y)); it != nil {
				c.fireItemBinding(it, fmt.Sprintf("<Button-%d>", ev.Detail), ev)
			}
		case xproto.ButtonRelease:
			if it := c.itemAt(int(ev.X), int(ev.Y)); it != nil {
				c.fireItemBinding(it, fmt.Sprintf("<ButtonRelease-%d>", ev.Detail), ev)
			}
		}
	})
}

// fireItemBinding runs the script bound to the event for any tag the item
// carries (or its id), with %x/%y substitution.
func (c *Canvas) fireItemBinding(it *canvasItem, spec string, ev *xproto.Event) {
	specs := append([]string{strconv.Itoa(it.id)}, it.tags...)
	for _, tag := range specs {
		if script, ok := c.itemBindings[tag][spec]; ok {
			script = strings.ReplaceAll(script, "%x", strconv.Itoa(int(ev.X)))
			script = strings.ReplaceAll(script, "%y", strconv.Itoa(int(ev.Y)))
			c.eval(fmt.Sprintf("canvas binding %s on %s", spec, c.win.Path), script)
			return
		}
	}
}

// parseCoords reads an even number of integer coordinates.
func parseCoords(args []string) ([]int, error) {
	if len(args) == 0 || len(args)%2 != 0 {
		return nil, fmt.Errorf("canvas coordinates must come in x y pairs")
	}
	out := make([]int, len(args))
	for i, a := range args {
		n, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q", a)
		}
		out[i] = n
	}
	return out, nil
}

// recompute implements subcommander.
func (c *Canvas) recompute() error {
	if err := c.resolve(); err != nil {
		return err
	}
	c.win.GeometryRequest(c.cv.GetInt("-width", 200), c.cv.GetInt("-height", 150))
	c.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (c *Canvas) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "create":
		return c.cmdCreate(args)
	case "delete":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s delete tagOrId"`, c.win.Path)
		}
		kept := c.items[:0]
		for _, it := range c.items {
			if !it.hasTag(args[0]) {
				kept = append(kept, it)
			} else if c.current == it {
				c.current = nil
			}
		}
		c.items = kept
		c.win.ScheduleRedraw()
		return "", nil
	case "move":
		if len(args) != 3 {
			return "", fmt.Errorf(`wrong # args: should be "%s move tagOrId dx dy"`, c.win.Path)
		}
		dx, err1 := strconv.Atoi(args[1])
		dy, err2 := strconv.Atoi(args[2])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("expected integer offsets")
		}
		for _, it := range c.items {
			if it.hasTag(args[0]) {
				for i := 0; i+1 < len(it.coords); i += 2 {
					it.coords[i] += dx
					it.coords[i+1] += dy
				}
			}
		}
		c.win.ScheduleRedraw()
		return "", nil
	case "coords":
		if len(args) < 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s coords tagOrId ?x y ...?"`, c.win.Path)
		}
		for _, it := range c.items {
			if it.hasTag(args[0]) {
				if len(args) > 1 {
					coords, err := parseCoords(args[1:])
					if err != nil {
						return "", err
					}
					it.coords = coords
					c.win.ScheduleRedraw()
					return "", nil
				}
				out := make([]string, len(it.coords))
				for i, v := range it.coords {
					out[i] = strconv.Itoa(v)
				}
				return strings.Join(out, " "), nil
			}
		}
		return "", nil
	case "itemconfigure":
		if len(args) < 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s itemconfigure tagOrId ?option value ...?"`, c.win.Path)
		}
		opts := args[1:]
		if len(opts)%2 != 0 {
			return "", fmt.Errorf("value for %q missing", opts[len(opts)-1])
		}
		for _, it := range c.items {
			if !it.hasTag(args[0]) {
				continue
			}
			for i := 0; i < len(opts); i += 2 {
				if err := c.applyItemOption(it, opts[i], opts[i+1]); err != nil {
					return "", err
				}
			}
		}
		c.win.ScheduleRedraw()
		return "", nil
	case "bind":
		if len(args) < 2 || len(args) > 3 {
			return "", fmt.Errorf(`wrong # args: should be "%s bind tagOrId event ?script?"`, c.win.Path)
		}
		tag, event := args[0], args[1]
		if len(args) == 2 {
			return c.itemBindings[tag][event], nil
		}
		if c.itemBindings[tag] == nil {
			c.itemBindings[tag] = make(map[string]string)
		}
		if args[2] == "" {
			delete(c.itemBindings[tag], event)
		} else {
			c.itemBindings[tag][event] = args[2]
		}
		return "", nil
	case "find":
		if len(args) >= 1 && args[0] == "closest" {
			if len(args) != 3 {
				return "", fmt.Errorf(`wrong # args: should be "%s find closest x y"`, c.win.Path)
			}
			x, err1 := strconv.Atoi(args[1])
			y, err2 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil {
				return "", fmt.Errorf("expected integer coordinates")
			}
			best := -1
			bestDist := 1 << 30
			for _, it := range c.items {
				x0, y0, x1, y1 := it.bbox()
				cx, cy := (x0+x1)/2, (y0+y1)/2
				d := (cx-x)*(cx-x) + (cy-y)*(cy-y)
				if d < bestDist {
					bestDist = d
					best = it.id
				}
			}
			if best < 0 {
				return "", nil
			}
			return strconv.Itoa(best), nil
		}
		if len(args) >= 1 && args[0] == "withtag" && len(args) == 2 {
			var ids []int
			for _, it := range c.items {
				if it.hasTag(args[1]) {
					ids = append(ids, it.id)
				}
			}
			sort.Ints(ids)
			out := make([]string, len(ids))
			for i, id := range ids {
				out[i] = strconv.Itoa(id)
			}
			return strings.Join(out, " "), nil
		}
		return "", fmt.Errorf(`bad find option: should be "closest x y" or "withtag tag"`)
	case "gettags":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s gettags tagOrId"`, c.win.Path)
		}
		for _, it := range c.items {
			if it.hasTag(args[0]) {
				return tcl.FormatList(it.tags), nil
			}
		}
		return "", nil
	case "raise":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s raise tagOrId"`, c.win.Path)
		}
		var lifted, rest []*canvasItem
		for _, it := range c.items {
			if it.hasTag(args[0]) {
				lifted = append(lifted, it)
			} else {
				rest = append(rest, it)
			}
		}
		c.items = append(rest, lifted...)
		c.win.ScheduleRedraw()
		return "", nil
	}
	return "", fmt.Errorf("bad option %q for canvas", sub)
}

// cmdCreate handles "create type x y ?x y ...? ?-option value ...?".
func (c *Canvas) cmdCreate(args []string) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf(`wrong # args: should be "%s create type coords ?options?"`, c.win.Path)
	}
	kind := args[0]
	switch kind {
	case "line", "rectangle", "oval", "polygon", "text":
	default:
		return "", fmt.Errorf("unknown canvas item type %q", kind)
	}
	// Coordinates run until the first -option.
	i := 1
	for i < len(args) && !strings.HasPrefix(args[i], "-") {
		i++
	}
	coords, err := parseCoords(args[1:i])
	if err != nil {
		return "", err
	}
	switch kind {
	case "rectangle", "oval":
		if len(coords) != 4 {
			return "", fmt.Errorf("%s items need exactly 4 coordinates", kind)
		}
	case "text":
		if len(coords) != 2 {
			return "", fmt.Errorf("text items need exactly 2 coordinates")
		}
	case "polygon":
		if len(coords) < 6 {
			return "", fmt.Errorf("polygons need at least 3 points")
		}
	}
	c.nextID++
	it := &canvasItem{id: c.nextID, kind: kind, coords: coords, fill: "black", width: 1}
	opts := args[i:]
	if len(opts)%2 != 0 {
		return "", fmt.Errorf("value for %q missing", opts[len(opts)-1])
	}
	for j := 0; j < len(opts); j += 2 {
		if err := c.applyItemOption(it, opts[j], opts[j+1]); err != nil {
			return "", err
		}
	}
	c.items = append(c.items, it)
	c.win.ScheduleRedraw()
	return strconv.Itoa(it.id), nil
}

func (c *Canvas) applyItemOption(it *canvasItem, name, value string) error {
	switch name {
	case "-fill":
		if _, err := c.app.Color(value); err != nil {
			return err
		}
		it.fill = value
	case "-width":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("bad width %q", value)
		}
		it.width = n
	case "-text":
		it.text = value
	case "-tags":
		tags, err := tcl.ParseList(value)
		if err != nil {
			return err
		}
		it.tags = tags
	default:
		return fmt.Errorf("unknown item option %q", name)
	}
	return nil
}

// Redraw implements tk.Widget.
func (c *Canvas) Redraw() {
	if c.win.Destroyed {
		return
	}
	c.clear(c.bg)
	bd := c.cv.GetInt("-borderwidth", 2)
	d := c.app.Disp
	for _, it := range c.items {
		px, err := c.app.Color(it.fill)
		if err != nil {
			px = 0
		}
		gc := c.app.GC(px, c.bg, it.width, c.fontID())
		switch it.kind {
		case "line":
			pts := make([]xproto.Point, 0, len(it.coords)/2)
			for i := 0; i+1 < len(it.coords); i += 2 {
				pts = append(pts, xproto.Point{X: int16(it.coords[i]), Y: int16(it.coords[i+1])})
			}
			d.DrawLines(c.win.XID, gc, pts)
		case "rectangle":
			x0, y0, x1, y1 := it.bbox()
			d.FillRectangle(c.win.XID, gc, x0, y0, x1-x0, y1-y0)
		case "oval":
			// Approximated by a filled polygon around the ellipse.
			x0, y0, x1, y1 := it.bbox()
			cx, cy := (x0+x1)/2, (y0+y1)/2
			rx, ry := (x1-x0)/2, (y1-y0)/2
			pts := make([]xproto.Point, 0, 24)
			for k := 0; k < 24; k++ {
				pts = append(pts, xproto.Point{
					X: int16(cx + int(float64(rx)*cosTable[k])),
					Y: int16(cy + int(float64(ry)*sinTable[k])),
				})
			}
			d.FillPolygon(c.win.XID, gc, pts)
		case "polygon":
			pts := make([]xproto.Point, 0, len(it.coords)/2)
			for i := 0; i+1 < len(it.coords); i += 2 {
				pts = append(pts, xproto.Point{X: int16(it.coords[i]), Y: int16(it.coords[i+1])})
			}
			d.FillPolygon(c.win.XID, gc, pts)
		case "text":
			d.DrawString(c.win.XID, gc, it.coords[0], it.coords[1]+c.font.Ascent, it.text)
		}
	}
	c.draw3DBorder(0, 0, c.win.Width, c.win.Height, bd, c.bg, c.cv.Get("-relief"))
}

// cosTable/sinTable hold 24 points around the unit circle (avoiding a
// math import for one approximation).
var cosTable, sinTable = func() ([24]float64, [24]float64) {
	var ct, st [24]float64
	// Values computed once via the Taylor-free identity: rotate a unit
	// vector by 15° steps.
	const c15, s15 = 0.9659258262890683, 0.25881904510252074
	x, y := 1.0, 0.0
	for i := 0; i < 24; i++ {
		ct[i], st[i] = x, y
		x, y = x*c15-y*s15, x*s15+y*c15
	}
	return ct, st
}()
