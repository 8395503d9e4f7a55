package widget

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Text implements a multi-line editable text widget — the component the
// paper's §6 debugger/editor scenario assumes ("Tk-based debuggers and
// editors can be built as separate programs") and the natural host for
// its hypertext sketch: character ranges carry named tags, tags can
// change display attributes, and tags can have event bindings, so "a
// hypertext system can be implemented by associating Tcl commands with
// pieces of text".
//
// Indices are "line.char" (lines 1-based, chars 0-based), "end",
// "insert", or "L.end". The widget command supports insert, delete, get,
// index, mark set insert, view/yview, and the tag subcommands add,
// remove, names, configure and bind.
type Text struct {
	base

	lines   []string
	curLine int // insertion cursor line (0-based internally)
	curChar int
	topLine int // first visible line (0-based)
	scroll  scrollView

	tags map[string]*textTag
	// bindings names tags; it is made at the first tag bind.
	bindings *tk.BindingTable

	// Redisplay state. Redraw repaints the rows of lines dmgLo..dmgHi
	// (none while dmgLo > dmgHi), of the line the cursor was drawn on
	// (cursorDrawn) and of the cursor's line; it repaints everything
	// when repaintAll is set or the window is no longer drawnW×drawnH.
	dmgLo, dmgHi   int
	repaintAll     bool
	cursorDrawn    int
	drawnW, drawnH int
}

type textTag struct {
	name       string
	background string
	foreground string
	underline  bool
	ranges     []textRange
}

type textRange struct {
	startLine, startChar int
	endLine, endChar     int
}

// textSpecs is the Text option table, built once on first use.
var textSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs("White")
	for i := range specs {
		if specs[i].Name == "-relief" {
			specs[i].Default = "sunken"
		}
	}
	return append(specs,
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "40"},
		tk.OptionSpec{Name: "-height", DBName: "height", DBClass: "Height", Default: "10"},
		tk.OptionSpec{Name: "-scroll", DBName: "scrollCommand", DBClass: "ScrollCommand", Default: ""},
		tk.OptionSpec{Name: "-yscroll", Synonym: "-scroll"},
	)
}}

func createText(app *tk.App, args []string, rows []tcl.Row) (string, error) {
	b, err := newBase(app, args[1], "Text", textSpecs.get(), false)
	if err != nil {
		return "", err
	}
	tx := &Text{base: *b, lines: []string{""}, tags: make(map[string]*textTag)}
	tx.scroll = scrollView{b: &tx.base, view: func() (int, int, int) { return len(tx.lines), tx.visibleLines(), tx.topLine }}
	tx.win.Widget = tx
	tx.win.AddEventHandler(xproto.ExposureMask, func(*xproto.Event) { tx.redrawAll() })
	tx.bindBehaviour()
	// A resize changes how many lines are visible; keep the attached
	// scrollbar current.
	tx.win.AddEventHandler(xproto.StructureNotifyMask, func(ev *xproto.Event) {
		if ev.Type == xproto.ConfigureNotify {
			tx.scroll.changed()
		}
	})
	app.SetSelectionHandler(tx.win, func() string { return tx.Get(0, 0, len(tx.lines)-1, len(tx.lines[len(tx.lines)-1])) })
	return tx.install(tx, rows, args[2:])
}

// --- indices ---------------------------------------------------------------

// parseTextIndex resolves an index spec to 0-based (line, char), clamped.
func (tx *Text) parseTextIndex(spec string) (int, int, error) {
	switch spec {
	case "end":
		last := len(tx.lines) - 1
		return last, len(tx.lines[last]), nil
	case "insert":
		return tx.curLine, tx.curChar, nil
	}
	dot := strings.IndexByte(spec, '.')
	if dot < 0 {
		return 0, 0, fmt.Errorf("bad text index %q", spec)
	}
	line, err := strconv.Atoi(spec[:dot])
	if err != nil {
		return 0, 0, fmt.Errorf("bad text index %q", spec)
	}
	line-- // external indices are 1-based
	if line < 0 {
		line = 0
	}
	if line >= len(tx.lines) {
		line = len(tx.lines) - 1
	}
	charSpec := spec[dot+1:]
	if charSpec == "end" {
		return line, len(tx.lines[line]), nil
	}
	ch, err := strconv.Atoi(charSpec)
	if err != nil {
		return 0, 0, fmt.Errorf("bad text index %q", spec)
	}
	if ch < 0 {
		ch = 0
	}
	if ch > len(tx.lines[line]) {
		ch = len(tx.lines[line])
	}
	return line, ch, nil
}

func formatIndex(line, ch int) string {
	return fmt.Sprintf("%d.%d", line+1, ch)
}

// --- editing ---------------------------------------------------------------

// Insert places text at (line, ch); embedded newlines split lines.
func (tx *Text) Insert(line, ch int, s string) {
	parts := strings.Split(s, "\n")
	cur := tx.lines[line]
	head, tail := cur[:ch], cur[ch:]
	if len(parts) == 1 {
		tx.lines[line] = head + s + tail
		if tx.curLine == line && tx.curChar >= ch {
			tx.curChar += len(s)
		}
		tx.damage(line, line)
	} else {
		newLines := make([]string, 0, len(tx.lines)+len(parts)-1)
		newLines = append(newLines, tx.lines[:line]...)
		newLines = append(newLines, head+parts[0])
		newLines = append(newLines, parts[1:len(parts)-1]...)
		newLines = append(newLines, parts[len(parts)-1]+tail)
		newLines = append(newLines, tx.lines[line+1:]...)
		tx.lines = newLines
		tx.curLine = line + len(parts) - 1
		tx.curChar = len(parts[len(parts)-1])
		tx.damage(line, math.MaxInt)
	}
	tx.scroll.changed()
}

// Delete removes the range [start, end).
func (tx *Text) Delete(l1, c1, l2, c2 int) {
	if l1 > l2 || (l1 == l2 && c1 >= c2) {
		return
	}
	head := tx.lines[l1][:c1]
	tail := tx.lines[l2][c2:]
	newLines := make([]string, 0, len(tx.lines))
	newLines = append(newLines, tx.lines[:l1]...)
	newLines = append(newLines, head+tail)
	newLines = append(newLines, tx.lines[l2+1:]...)
	tx.lines = newLines
	tx.curLine, tx.curChar = l1, c1
	if l1 == l2 {
		tx.damage(l1, l1)
	} else {
		tx.damage(l1, math.MaxInt)
	}
	tx.scroll.changed()
}

// Get returns the text in [start, end).
func (tx *Text) Get(l1, c1, l2, c2 int) string {
	if l1 > l2 || (l1 == l2 && c1 >= c2) {
		return ""
	}
	if l1 == l2 {
		return tx.lines[l1][c1:c2]
	}
	var b strings.Builder
	b.WriteString(tx.lines[l1][c1:])
	for i := l1 + 1; i < l2; i++ {
		b.WriteByte('\n')
		b.WriteString(tx.lines[i])
	}
	b.WriteByte('\n')
	b.WriteString(tx.lines[l2][:c2])
	return b.String()
}

// --- geometry and behaviour --------------------------------------------

func (tx *Text) lineHeight() int { return tx.font.LineHeight() + 2 }

func (tx *Text) visibleLines() int {
	bd := tx.cv.GetInt("-borderwidth", 2)
	n := (tx.win.Height - 2*bd) / tx.lineHeight()
	if n < 1 {
		n = 1
	}
	return n
}

// indexAtXY converts window coordinates to a text position.
func (tx *Text) indexAtXY(x, y int) (int, int) {
	bd := tx.cv.GetInt("-borderwidth", 2)
	line := tx.topLine + (y-bd)/tx.lineHeight()
	if line < 0 {
		line = 0
	}
	if line >= len(tx.lines) {
		line = len(tx.lines) - 1
	}
	cw := tx.font.TextWidth("0")
	if cw < 1 {
		cw = 1
	}
	ch := (x - bd - 3 + cw/2) / cw
	if ch < 0 {
		ch = 0
	}
	if ch > len(tx.lines[line]) {
		ch = len(tx.lines[line])
	}
	return line, ch
}

func (tx *Text) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.ButtonReleaseMask | xproto.KeyPressMask
	tx.win.AddEventHandler(mask, func(ev *xproto.Event) {
		switch int(ev.Type) {
		case xproto.ButtonPress, xproto.ButtonRelease:
			if ev.Type == xproto.ButtonPress && ev.Detail == 1 {
				tx.curLine, tx.curChar = tx.indexAtXY(int(ev.X), int(ev.Y))
				tx.app.Disp.SetInputFocus(tx.win.XID)
				tx.win.ScheduleRedraw()
			}
			if tx.bindings != nil {
				tx.bindings.Trigger(tx.win, ev, tx.tagsAt(int(ev.X), int(ev.Y))...)
			}
		case xproto.KeyPress:
			tx.handleKey(ev)
		}
	})
}

// tagsAt returns the names of the tags covering the character at window
// coordinates (x, y), in tagNames order: the objects a button event
// there is bound through (§6's active text).
func (tx *Text) tagsAt(x, y int) []string {
	line, ch := tx.indexAtXY(x, y)
	var names []string
	for _, name := range tx.tagNames() {
		if tx.tags[name].covers(line, ch) {
			names = append(names, name)
		}
	}
	return names
}

func (tag *textTag) covers(line, ch int) bool {
	for _, r := range tag.ranges {
		afterStart := line > r.startLine || (line == r.startLine && ch >= r.startChar)
		beforeEnd := line < r.endLine || (line == r.endLine && ch < r.endChar)
		if afterStart && beforeEnd {
			return true
		}
	}
	return false
}

// handleKey edits the text or moves the insertion cursor for one key,
// then keeps the cursor in view.
func (tx *Text) handleKey(ev *xproto.Event) {
	switch ev.Keysym {
	case xproto.KsBackSpace:
		if tx.curChar > 0 {
			tx.Delete(tx.curLine, tx.curChar-1, tx.curLine, tx.curChar)
		} else if tx.curLine > 0 {
			prevLen := len(tx.lines[tx.curLine-1])
			tx.Delete(tx.curLine-1, prevLen, tx.curLine, 0)
		}
	case xproto.KsReturn:
		tx.Insert(tx.curLine, tx.curChar, "\n")
	case xproto.KsLeft:
		if tx.curChar > 0 {
			tx.curChar--
		} else if tx.curLine > 0 {
			tx.curLine--
			tx.curChar = len(tx.lines[tx.curLine])
		}
		tx.win.ScheduleRedraw()
	case xproto.KsRight:
		if tx.curChar < len(tx.lines[tx.curLine]) {
			tx.curChar++
		} else if tx.curLine < len(tx.lines)-1 {
			tx.curLine++
			tx.curChar = 0
		}
		tx.win.ScheduleRedraw()
	case xproto.KsUp:
		if tx.curLine > 0 {
			tx.curLine--
			tx.curChar = min(tx.curChar, len(tx.lines[tx.curLine]))
			tx.win.ScheduleRedraw()
		}
	case xproto.KsDown:
		if tx.curLine < len(tx.lines)-1 {
			tx.curLine++
			tx.curChar = min(tx.curChar, len(tx.lines[tx.curLine]))
			tx.win.ScheduleRedraw()
		}
	default:
		if ev.State&xproto.ControlMask != 0 {
			return
		}
		ch := xproto.KeysymRune(ev.Keysym, ev.State)
		if ch == "" || ch == "\n" {
			return
		}
		tx.Insert(tx.curLine, tx.curChar, ch)
	}
	tx.seeInsert()
}

// seeInsert scrolls the view by the least amount that shows the
// insertion cursor's line. Tk's text bindings likewise keep the cursor
// in view after every key ("yview -pickplace insert").
func (tx *Text) seeInsert() {
	switch rows := tx.visibleLines(); {
	case tx.curLine < tx.topLine:
		tx.View(tx.curLine)
	case tx.curLine >= tx.topLine+rows:
		tx.View(tx.curLine - rows + 1)
	}
}

// View scrolls so that 0-based line is at the top.
func (tx *Text) View(line int) {
	tx.topLine = clampTop(line, len(tx.lines), tx.visibleLines())
	tx.scroll.changed()
	tx.redrawAll()
}

func (tx *Text) tagNames() []string {
	names := make([]string, 0, len(tx.tags))
	for n := range tx.tags {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- widget command ----------------------------------------------------

// recompute implements widget.
func (tx *Text) recompute() error {
	if err := tx.resolve(); err != nil {
		return err
	}
	bd := tx.cv.GetInt("-borderwidth", 2)
	cols := tx.cv.GetInt("-width", 40)
	rows := tx.cv.GetInt("-height", 10)
	tx.win.GeometryRequest(cols*tx.font.TextWidth("0")+2*bd+6, rows*tx.lineHeight()+2*bd)
	tx.redrawAll()
	tx.scroll.changed()
	return nil
}

// textRows returns the subcommand rows of a text widget, bound to app.
func textRows(app *tk.App) []tcl.Row {
	view := on(app, func(tx *Text, args []string) (string, error) {
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return "", fmt.Errorf("expected integer but got %q", args[0])
		}
		tx.View(n)
		return "", nil
	})
	return []tcl.Row{
		configure(app),
		{Name: "delete", Fn: on(app, func(tx *Text, args []string) (string, error) {
			l1, c1, err := tx.parseTextIndex(args[0])
			if err != nil {
				return "", err
			}
			l2, c2 := l1, c1+1
			if c2 > len(tx.lines[l1]) {
				if l1 < len(tx.lines)-1 {
					l2, c2 = l1+1, 0
				} else {
					c2 = len(tx.lines[l1])
				}
			}
			if len(args) == 2 {
				if l2, c2, err = tx.parseTextIndex(args[1]); err != nil {
					return "", err
				}
			}
			tx.Delete(l1, c1, l2, c2)
			return "", nil
		}), Min: 1, Max: 2, Usage: "index1 ?index2?"},
		{Name: "get", Fn: on(app, func(tx *Text, args []string) (string, error) {
			l1, c1, err := tx.parseTextIndex(args[0])
			if err != nil {
				return "", err
			}
			l2, c2 := l1, min(c1+1, len(tx.lines[l1]))
			if len(args) == 2 {
				if l2, c2, err = tx.parseTextIndex(args[1]); err != nil {
					return "", err
				}
			}
			return tx.Get(l1, c1, l2, c2), nil
		}), Min: 1, Max: 2, Usage: "index1 ?index2?"},
		{Name: "index", Fn: on(app, func(tx *Text, args []string) (string, error) {
			l, c, err := tx.parseTextIndex(args[0])
			if err != nil {
				return "", err
			}
			return formatIndex(l, c), nil
		}), Min: 1, Max: 1, Usage: "index"},
		{Name: "insert", Fn: on(app, func(tx *Text, args []string) (string, error) {
			l, c, err := tx.parseTextIndex(args[0])
			if err != nil {
				return "", err
			}
			tx.Insert(l, c, args[1])
			return "", nil
		}), Min: 2, Max: 2, Usage: "index string"},
		{Name: "lines", Fn: on(app, func(tx *Text, _ []string) (string, error) { return strconv.Itoa(len(tx.lines)), nil })},
		{Name: "mark", Min: 1, Max: -1, Usage: "option ?arg ...?", Subs: []tcl.Row{
			{Name: "set", Fn: on(app, func(tx *Text, args []string) (string, error) {
				if args[1] != "insert" {
					return "", fmt.Errorf("bad mark name %q: only insert is supported", args[1])
				}
				l, c, err := tx.parseTextIndex(args[2])
				if err != nil {
					return "", err
				}
				tx.curLine, tx.curChar = l, c
				tx.win.ScheduleRedraw()
				return "", nil
			}), Min: 2, Max: 2, Usage: "markName index"},
		}},
		{Name: "tag", Min: 1, Max: -1, Usage: "option ?arg ...?", Subs: []tcl.Row{
			{Name: "add", Fn: on(app, func(tx *Text, args []string) (string, error) {
				l1, c1, err := tx.parseTextIndex(args[2])
				if err != nil {
					return "", err
				}
				l2, c2, err := tx.parseTextIndex(args[3])
				if err != nil {
					return "", err
				}
				tag := tx.tag(args[1])
				tag.ranges = append(tag.ranges, textRange{l1, c1, l2, c2})
				tx.redrawAll()
				return "", nil
			}), Min: 3, Max: 3, Usage: "name index1 index2"},
			{Name: "bind", Fn: on(app, func(tx *Text, args []string) (string, error) {
				tx.tag(args[1]) // binding a tag creates it, as in Tk
				if tx.bindings == nil {
					tx.bindings = tk.NewBindingTable()
				}
				res, _, err := tx.bindings.Bind(args[1], args[2:])
				return res, err
			}), Min: 1, Max: 3, Usage: "tagName ?sequence? ?command?"},
			{Name: "configure", Fn: on(app, func(tx *Text, args []string) (string, error) {
				if len(args)%2 != 0 {
					return "", fmt.Errorf("value for %q missing", args[len(args)-1])
				}
				tag := tx.tag(args[1])
				for i := 2; i < len(args); i += 2 {
					switch args[i] {
					case "-background":
						tag.background = args[i+1]
					case "-foreground":
						tag.foreground = args[i+1]
					case "-underline":
						tag.underline = args[i+1] == "1" || args[i+1] == "true"
					default:
						return "", fmt.Errorf("unknown tag option %q", args[i])
					}
				}
				tx.redrawAll()
				return "", nil
			}), Min: 1, Max: -1, Usage: "name ?option value ...?"},
			{Name: "names", Fn: on(app, func(tx *Text, _ []string) (string, error) { return tcl.FormatList(tx.tagNames()), nil })},
			{Name: "remove", Fn: on(app, func(tx *Text, args []string) (string, error) {
				if tag, ok := tx.tags[args[1]]; ok {
					tag.ranges = nil
					tx.redrawAll()
				}
				return "", nil
			}), Min: 1, Max: 1, Usage: "name"},
		}},
		{Name: "view", Fn: view, Min: 1, Max: 1, Usage: "lineNum"},
		{Name: "yview", Fn: view, Min: 1, Max: 1, Usage: "lineNum"},
	}
}

// tag returns the tag called name, creating it if need be.
func (tx *Text) tag(name string) *textTag {
	tag, ok := tx.tags[name]
	if !ok {
		tag = &textTag{name: name}
		tx.tags[name] = tag
	}
	return tag
}

// damage marks lines lo..hi for repainting at idle time; the rows of
// the old and new cursor lines are repainted with them.
func (tx *Text) damage(lo, hi int) {
	if tx.dmgLo > tx.dmgHi {
		tx.dmgLo, tx.dmgHi = lo, hi
	} else {
		tx.dmgLo, tx.dmgHi = min(tx.dmgLo, lo), max(tx.dmgHi, hi)
	}
	tx.win.ScheduleRedraw()
}

// redrawAll schedules a repaint of the whole widget: for exposure,
// scrolling, tag changes and configuration.
func (tx *Text) redrawAll() {
	tx.repaintAll = true
	tx.win.ScheduleRedraw()
}

// textPaint is what painting a row needs, resolved once per Redraw.
type textPaint struct {
	bd, lh, cw int
	gcText     xproto.ID
	tags       []tagPaint
}

// tagPaint is a tag with its resolved graphics contexts: bg fills its
// background (0 for none), fg draws its text and underline (0 when the
// tag changes neither).
type tagPaint struct {
	tag    *textTag
	bg, fg xproto.ID
}

// Redraw implements tk.Widget. A full repaint clears the window and
// paints every visible row; otherwise only the damaged rows are cleared
// and repainted. Either way the border is drawn last, over any text
// that overflows into it.
func (tx *Text) Redraw() {
	if tx.win.Destroyed {
		return
	}
	p := textPaint{
		bd:     tx.cv.GetInt("-borderwidth", 2),
		lh:     tx.lineHeight(),
		cw:     tx.font.TextWidth("0"),
		gcText: tx.app.GC(tx.fg, tx.bg, 1, tx.fontID()),
	}
	for _, name := range tx.tagNames() {
		tag := tx.tags[name]
		tp := tagPaint{tag: tag}
		if tag.background != "" {
			if px, err := tx.app.Color(tag.background); err == nil {
				tp.bg = tx.app.GC(px, px, 1, tx.fontID())
			}
		}
		if tag.foreground != "" || tag.underline {
			fg := tx.fg
			if tag.foreground != "" {
				if px, err := tx.app.Color(tag.foreground); err == nil {
					fg = px
				}
			}
			tp.fg = tx.app.GC(fg, tx.bg, 1, tx.fontID())
		}
		if tp.bg != 0 || tp.fg != 0 {
			p.tags = append(p.tags, tp)
		}
	}
	full := tx.repaintAll || tx.win.Width != tx.drawnW || tx.win.Height != tx.drawnH
	if full {
		tx.clear(tx.bg)
	}
	gcClear := tx.app.GC(tx.bg, tx.bg, 1, tx.fontID())
	for row, visible := 0, tx.visibleLines(); row < visible; row++ {
		line := tx.topLine + row
		if !full {
			if line != tx.curLine && line != tx.cursorDrawn && (line < tx.dmgLo || line > tx.dmgHi) {
				continue
			}
			tx.app.Disp.FillRectangle(tx.win.XID, gcClear, p.bd, p.bd+row*p.lh, tx.win.Width-2*p.bd, p.lh)
		}
		if line < len(tx.lines) {
			tx.paintLine(line, &p)
		}
	}
	tx.draw3DBorder(0, 0, tx.win.Width, tx.win.Height, p.bd, tx.bg, tx.cv.Get("-relief"))
	tx.repaintAll = false
	tx.dmgLo, tx.dmgHi = 0, -1
	tx.cursorDrawn = tx.curLine
	tx.drawnW, tx.drawnH = tx.win.Width, tx.win.Height
}

// paintLine draws one visible line over a cleared row: tag backgrounds,
// the text, tagged foregrounds and underlines, then the insertion
// cursor if it is on this line. Nothing it draws leaves the row.
func (tx *Text) paintLine(line int, p *textPaint) {
	d := tx.app.Disp
	text := tx.lines[line]
	top := p.bd + (line-tx.topLine)*p.lh
	baseline := top + tx.font.Ascent + 1
	// span returns the characters of line that range r covers.
	span := func(r textRange) (int, int) {
		c1, c2 := 0, len(text)
		if line == r.startLine {
			c1 = r.startChar
		}
		if line == r.endLine {
			c2 = r.endChar
		}
		return c1, c2
	}
	for _, tp := range p.tags {
		if tp.bg == 0 {
			continue
		}
		for _, r := range tp.tag.ranges {
			if line < r.startLine || line > r.endLine {
				continue
			}
			if c1, c2 := span(r); c2 > c1 {
				d.FillRectangle(tx.win.XID, tp.bg, p.bd+3+c1*p.cw, top, (c2-c1)*p.cw, p.lh)
			}
		}
	}
	d.DrawString(tx.win.XID, p.gcText, p.bd+3, baseline, text)
	for _, tp := range p.tags {
		if tp.fg == 0 {
			continue
		}
		for _, r := range tp.tag.ranges {
			if line < r.startLine || line > r.endLine {
				continue
			}
			c1, c2 := span(r)
			if c2 <= c1 || c1 >= len(text) {
				continue
			}
			c2 = min(c2, len(text))
			d.DrawString(tx.win.XID, tp.fg, p.bd+3+c1*p.cw, baseline, text[c1:c2])
			if tp.tag.underline {
				d.FillRectangle(tx.win.XID, tp.fg, p.bd+3+c1*p.cw, baseline+2, (c2-c1)*p.cw, 1)
			}
		}
	}
	if line == tx.curLine {
		d.FillRectangle(tx.win.XID, p.gcText, p.bd+3+tx.curChar*p.cw, top+1, 1, p.lh-2)
	}
}
