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

	tags map[string]*textTag

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
	bindings   map[string]string
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

func registerText(app *tk.App) {
	app.Interp.Register("text", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "text pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Text", textSpecs.get(), false)
		if err != nil {
			return "", err
		}
		tx := &Text{base: *b, lines: []string{""}, tags: make(map[string]*textTag)}
		tx.win.Widget = tx
		tx.win.AddEventHandler(xproto.ExposureMask, func(*xproto.Event) { tx.redrawAll() })
		tx.bindBehaviour()
		// A resize changes how many lines are visible; keep the attached
		// scrollbar current.
		tx.win.AddEventHandler(xproto.StructureNotifyMask, func(ev *xproto.Event) {
			if ev.Type == xproto.ConfigureNotify {
				tx.updateScrollbar()
			}
		})
		app.SetSelectionHandler(tx.win, func() string { return tx.Get(0, 0, len(tx.lines)-1, len(tx.lines[len(tx.lines)-1])) })
		return tx.install(tx, args[2:])
	})
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
	tx.updateScrollbar()
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
	tx.updateScrollbar()
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
		case xproto.ButtonPress:
			if ev.Detail != 1 {
				return
			}
			tx.curLine, tx.curChar = tx.indexAtXY(int(ev.X), int(ev.Y))
			tx.app.Disp.SetInputFocus(tx.win.XID)
			tx.win.ScheduleRedraw()
			tx.fireTagBinding(fmt.Sprintf("<Button-%d>", ev.Detail), ev)
		case xproto.ButtonRelease:
			tx.fireTagBinding(fmt.Sprintf("<ButtonRelease-%d>", ev.Detail), ev)
		case xproto.KeyPress:
			tx.handleKey(ev)
		}
	})
}

// fireTagBinding runs the binding of any tag covering the pointer
// position (§6's active text).
func (tx *Text) fireTagBinding(spec string, ev *xproto.Event) {
	line, ch := tx.indexAtXY(int(ev.X), int(ev.Y))
	for _, name := range tx.tagNames() {
		tag := tx.tags[name]
		script, ok := tag.bindings[spec]
		if !ok || !tag.covers(line, ch) {
			continue
		}
		script = strings.ReplaceAll(script, "%x", strconv.Itoa(int(ev.X)))
		script = strings.ReplaceAll(script, "%y", strconv.Itoa(int(ev.Y)))
		tx.eval(fmt.Sprintf("tag %q binding on %s", name, tx.win.Path), script)
		return
	}
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

// updateScrollbar keeps an attached scrollbar current.
func (tx *Text) updateScrollbar() {
	cmd := tx.cv.Get("-scroll")
	if strings.TrimSpace(cmd) == "" {
		return
	}
	window := tx.visibleLines()
	last := tx.topLine + window - 1
	if last >= len(tx.lines) {
		last = len(tx.lines) - 1
	}
	tx.eval("text scroll command", fmt.Sprintf("%s %d %d %d %d",
		cmd, len(tx.lines), window, tx.topLine, last))
}

// View scrolls so that 0-based line is at the top.
func (tx *Text) View(line int) {
	maxTop := len(tx.lines) - tx.visibleLines()
	if maxTop < 0 {
		maxTop = 0
	}
	if line > maxTop {
		line = maxTop
	}
	if line < 0 {
		line = 0
	}
	tx.topLine = line
	tx.updateScrollbar()
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

// recompute implements subcommander.
func (tx *Text) recompute() error {
	if err := tx.resolve(); err != nil {
		return err
	}
	bd := tx.cv.GetInt("-borderwidth", 2)
	cols := tx.cv.GetInt("-width", 40)
	rows := tx.cv.GetInt("-height", 10)
	tx.win.GeometryRequest(cols*tx.font.TextWidth("0")+2*bd+6, rows*tx.lineHeight()+2*bd)
	tx.redrawAll()
	tx.updateScrollbar()
	return nil
}

// widgetCommand implements subcommander.
func (tx *Text) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "insert":
		if len(args) != 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s insert index string"`, tx.win.Path)
		}
		l, c, err := tx.parseTextIndex(args[0])
		if err != nil {
			return "", err
		}
		tx.Insert(l, c, args[1])
		return "", nil
	case "delete":
		if len(args) < 1 || len(args) > 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s delete index1 ?index2?"`, tx.win.Path)
		}
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
	case "get":
		if len(args) < 1 || len(args) > 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s get index1 ?index2?"`, tx.win.Path)
		}
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
	case "index":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s index index"`, tx.win.Path)
		}
		l, c, err := tx.parseTextIndex(args[0])
		if err != nil {
			return "", err
		}
		return formatIndex(l, c), nil
	case "mark":
		if len(args) == 3 && args[0] == "set" && args[1] == "insert" {
			l, c, err := tx.parseTextIndex(args[2])
			if err != nil {
				return "", err
			}
			tx.curLine, tx.curChar = l, c
			tx.win.ScheduleRedraw()
			return "", nil
		}
		return "", fmt.Errorf(`only "mark set insert index" is supported`)
	case "view", "yview":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s %s lineNum"`, tx.win.Path, sub)
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return "", fmt.Errorf("expected integer but got %q", args[0])
		}
		tx.View(n)
		return "", nil
	case "lines":
		return strconv.Itoa(len(tx.lines)), nil
	case "tag":
		return tx.tagCommand(args)
	}
	return "", fmt.Errorf("bad option %q for text widget", sub)
}

func (tx *Text) tagCommand(args []string) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf(`wrong # args: should be "%s tag option ?arg ...?"`, tx.win.Path)
	}
	getTag := func(name string) *textTag {
		tag, ok := tx.tags[name]
		if !ok {
			tag = &textTag{name: name, bindings: make(map[string]string)}
			tx.tags[name] = tag
		}
		return tag
	}
	switch args[0] {
	case "add":
		if len(args) != 4 {
			return "", fmt.Errorf(`wrong # args: should be "%s tag add name index1 index2"`, tx.win.Path)
		}
		l1, c1, err := tx.parseTextIndex(args[2])
		if err != nil {
			return "", err
		}
		l2, c2, err := tx.parseTextIndex(args[3])
		if err != nil {
			return "", err
		}
		tag := getTag(args[1])
		tag.ranges = append(tag.ranges, textRange{l1, c1, l2, c2})
		tx.redrawAll()
		return "", nil
	case "remove":
		if len(args) != 2 {
			return "", fmt.Errorf(`wrong # args: should be "%s tag remove name"`, tx.win.Path)
		}
		if tag, ok := tx.tags[args[1]]; ok {
			tag.ranges = nil
			tx.redrawAll()
		}
		return "", nil
	case "names":
		return tcl.FormatList(tx.tagNames()), nil
	case "configure":
		if len(args) < 2 || len(args)%2 != 0 {
			return "", fmt.Errorf(`wrong # args: should be "%s tag configure name ?option value ...?"`, tx.win.Path)
		}
		tag := getTag(args[1])
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
	case "bind":
		if len(args) < 3 || len(args) > 4 {
			return "", fmt.Errorf(`wrong # args: should be "%s tag bind name event ?script?"`, tx.win.Path)
		}
		tag := getTag(args[1])
		if len(args) == 3 {
			return tag.bindings[args[2]], nil
		}
		if args[3] == "" {
			delete(tag.bindings, args[2])
		} else {
			tag.bindings[args[2]] = args[3]
		}
		return "", nil
	}
	return "", fmt.Errorf("bad tag option %q: should be add, bind, configure, names, or remove", args[0])
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
