package tk

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tcl"
	"repro/internal/xproto"
)

// Event bindings (§3.2, Figure 7): the bind command attaches Tcl commands
// to X event patterns on a window. Patterns may be single events
// ("<Enter>", "a"), carry modifiers ("<Control-q>", "<Double-Button-1>"),
// or form multi-event sequences ("<Escape>q"). Before executing a bound
// command, %-sequences are replaced with fields from the event.

// pattern is one event in a binding sequence.
type pattern struct {
	eventType int    // xproto event type
	detail    uint32 // keysym or button number; 0 = any
	mods      uint16 // required modifier mask
	anyMods   bool   // "Any-" prefix: ignore extra modifiers (always true here)
	count     int    // 1, or 2/3 for Double/Triple
}

// binding is one bound sequence.
type binding struct {
	spec   string
	seq    []pattern
	script string
}

type bindingTable struct {
	byWindow map[string][]*binding
}

func newBindingTable() *bindingTable {
	return &bindingTable{byWindow: make(map[string][]*binding)}
}

func (bt *bindingTable) deleteWindow(path string) {
	delete(bt.byWindow, path)
}

// eventTypeNames maps bind event-type names to X event types.
var eventTypeNames = map[string]int{
	"ButtonPress":   xproto.ButtonPress,
	"Button":        xproto.ButtonPress,
	"ButtonRelease": xproto.ButtonRelease,
	"KeyPress":      xproto.KeyPress,
	"Key":           xproto.KeyPress,
	"KeyRelease":    xproto.KeyRelease,
	"Motion":        xproto.MotionNotify,
	"Enter":         xproto.EnterNotify,
	"Leave":         xproto.LeaveNotify,
	"FocusIn":       xproto.FocusIn,
	"FocusOut":      xproto.FocusOut,
	"Expose":        xproto.Expose,
	"Destroy":       xproto.DestroyNotify,
	"Unmap":         xproto.UnmapNotify,
	"Map":           xproto.MapNotify,
	"Configure":     xproto.ConfigureNotify,
	"Property":      xproto.PropertyNotify,
}

// modifierNames maps bind modifier names to state-mask bits; count
// modifiers (Double/Triple) and Any are handled separately.
var modifierNames = map[string]uint16{
	"Control": xproto.ControlMask,
	"Shift":   xproto.ShiftMask,
	"Lock":    xproto.LockMask,
	"Meta":    xproto.Mod1Mask,
	"M":       xproto.Mod1Mask,
	"Alt":     xproto.Mod1Mask,
	"B1":      xproto.Button1Mask,
	"Button1": xproto.Button1Mask,
	"B2":      xproto.Button2Mask,
	"Button2": xproto.Button2Mask,
	"B3":      xproto.Button3Mask,
	"Button3": xproto.Button3Mask,
	"B4":      xproto.Button4Mask,
	"B5":      xproto.Button5Mask,
}

// parseSequence parses a binding specification into its pattern sequence.
func parseSequence(spec string) ([]pattern, error) {
	var seq []pattern
	i := 0
	for i < len(spec) {
		c := spec[i]
		if c == '<' {
			end := strings.IndexByte(spec[i:], '>')
			if end < 0 {
				return nil, fmt.Errorf("missing \">\" in binding %q", spec)
			}
			p, err := parseAngle(spec[i+1 : i+end])
			if err != nil {
				return nil, err
			}
			seq = append(seq, p)
			i += end + 1
			continue
		}
		// A bare character is a KeyPress for that character. Space cannot
		// appear bare; use <space>.
		if c == ' ' {
			return nil, fmt.Errorf("bad binding %q: use <space> for the space key", spec)
		}
		seq = append(seq, pattern{eventType: xproto.KeyPress, detail: uint32(c), count: 1})
		i++
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("empty binding")
	}
	return seq, nil
}

// parseAngle parses the inside of <...>: modifiers, event type, detail.
func parseAngle(body string) (pattern, error) {
	p := pattern{count: 1}
	fields := strings.Split(body, "-")
	i := 0
	for i < len(fields) {
		f := fields[i]
		switch f {
		case "Double":
			p.count = 2
			i++
			continue
		case "Triple":
			p.count = 3
			i++
			continue
		case "Any":
			p.anyMods = true
			i++
			continue
		}
		if m, ok := modifierNames[f]; ok {
			p.mods |= m
			i++
			continue
		}
		break
	}
	if i >= len(fields) {
		return p, fmt.Errorf("no event type in binding <%s>", body)
	}
	// Event type or shorthand.
	f := fields[i]
	if t, ok := eventTypeNames[f]; ok {
		p.eventType = t
		i++
	} else if len(f) == 1 && f[0] >= '1' && f[0] <= '5' && i == len(fields)-1 {
		// <1> is ButtonPress-1.
		p.eventType = xproto.ButtonPress
		p.detail = uint32(f[0] - '0')
		return p, nil
	} else if ks, ok := xproto.KeysymFromName(f); ok && i == len(fields)-1 {
		// <Escape>, <a>: KeyPress shorthand.
		p.eventType = xproto.KeyPress
		p.detail = uint32(ks)
		return p, nil
	} else {
		return p, fmt.Errorf("bad event type or keysym %q in binding <%s>", f, body)
	}
	// Optional detail after the type.
	if i < len(fields) {
		detail := strings.Join(fields[i:], "-")
		switch p.eventType {
		case xproto.ButtonPress, xproto.ButtonRelease:
			n, err := strconv.Atoi(detail)
			if err != nil || n < 1 || n > 5 {
				return p, fmt.Errorf("bad button number %q in binding <%s>", detail, body)
			}
			p.detail = uint32(n)
		case xproto.KeyPress, xproto.KeyRelease:
			ks, ok := xproto.KeysymFromName(detail)
			if !ok {
				return p, fmt.Errorf("bad keysym %q in binding <%s>", detail, body)
			}
			p.detail = uint32(ks)
		default:
			return p, fmt.Errorf("detail %q not allowed for this event type in <%s>", detail, body)
		}
	}
	return p, nil
}

// requiredMask returns the X event mask a sequence needs selected.
func requiredMask(seq []pattern) uint32 {
	var mask uint32
	for _, p := range seq {
		mask |= xproto.EventMaskFor(p.eventType)
		if p.eventType == xproto.MotionNotify && p.mods&(xproto.Button1Mask|xproto.Button2Mask|xproto.Button3Mask) != 0 {
			mask |= xproto.ButtonMotionMask
		}
	}
	return mask
}

// Bind attaches (or replaces/deletes) a binding on a window. An empty
// script deletes; a script starting with "+" appends to the existing one.
func (app *App) Bind(w *Window, spec, script string) error {
	seq, err := parseSequence(spec)
	if err != nil {
		return err
	}
	list := app.bindings.byWindow[w.Path]
	idx := -1
	for i, b := range list {
		if b.spec == spec {
			idx = i
			break
		}
	}
	if script == "" {
		if idx >= 0 {
			app.bindings.byWindow[w.Path] = append(list[:idx], list[idx+1:]...)
		}
		return nil
	}
	if strings.HasPrefix(script, "+") && idx >= 0 {
		list[idx].script += "\n" + script[1:]
		return nil
	}
	if strings.HasPrefix(script, "+") {
		script = script[1:]
	}
	b := &binding{spec: spec, seq: seq, script: script}
	if idx >= 0 {
		list[idx] = b
	} else {
		app.bindings.byWindow[w.Path] = append(list, b)
	}
	// Extend the X event selection to cover the bound events.
	w.selectInput(requiredMask(seq))
	return nil
}

// BoundSequences lists the sequences bound on a window.
func (app *App) BoundSequences(w *Window) []string {
	list := app.bindings.byWindow[w.Path]
	specs := make([]string, 0, len(list))
	for _, b := range list {
		specs = append(specs, b.spec)
	}
	sort.Strings(specs)
	return specs
}

// BoundScript returns the script bound to spec on w ("" if none).
func (app *App) BoundScript(w *Window, spec string) string {
	for _, b := range app.bindings.byWindow[w.Path] {
		if b.spec == spec {
			return b.script
		}
	}
	return ""
}

// matchesEvent checks a single pattern against one event.
func (p *pattern) matchesEvent(ev *xproto.Event) bool {
	if int(ev.Type) != p.eventType {
		return false
	}
	if p.detail != 0 {
		var detail uint32
		switch p.eventType {
		case xproto.ButtonPress, xproto.ButtonRelease:
			detail = ev.Detail
		case xproto.KeyPress, xproto.KeyRelease:
			detail = uint32(ev.Keysym)
		}
		if detail != p.detail {
			return false
		}
	}
	if ev.State&p.mods != p.mods {
		return false
	}
	return true
}

// doubleClickTime is the maximum separation for Double/Triple matches.
const doubleClickTime = 500 // milliseconds of server time

// ignorableInSequence reports event types that may sit between the
// events of a sequence without breaking it (Tk ignores release events
// during sequence matching unless a pattern asks for them).
func ignorableInSequence(t uint8) bool {
	return int(t) == xproto.ButtonRelease || int(t) == xproto.KeyRelease
}

// matchSequence checks whether a binding's sequence matches the event
// history ending in the current event. history includes the current
// event as its last element.
func matchSequence(seq []pattern, history []xproto.Event) bool {
	h := len(history)
	for i := len(seq) - 1; i >= 0; i-- {
		p := seq[i]
		need := p.count
		var prev *xproto.Event
		for need > 0 {
			if h == 0 {
				return false
			}
			h--
			ev := &history[h]
			if !p.matchesEvent(ev) {
				// Releases between the events of a press sequence are
				// skipped (so Double-Button works when releases are
				// selected too); anything else breaks the sequence.
				if ignorableInSequence(ev.Type) && int(ev.Type) != p.eventType {
					continue
				}
				return false
			}
			if prev != nil {
				// Repeat constraint for Double/Triple: close in time and
				// space.
				if prev.Time-ev.Time > doubleClickTime {
					return false
				}
				dx, dy := int(prev.RootX)-int(ev.RootX), int(prev.RootY)-int(ev.RootY)
				if dx > 5 || dx < -5 || dy > 5 || dy < -5 {
					return false
				}
			}
			prev = ev
			need--
		}
	}
	return true
}

// score ranks binding specificity: longer sequences and more constrained
// patterns win.
func (b *binding) score() int {
	s := 0
	for _, p := range b.seq {
		s += 100 * p.count
		if p.detail != 0 {
			s += 10
		}
		s += popcount16(p.mods)
	}
	return s
}

func popcount16(v uint16) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// historyTracked reports whether an event type participates in sequence
// history.
func historyTracked(t uint8) bool {
	switch int(t) {
	case xproto.KeyPress, xproto.ButtonPress, xproto.ButtonRelease:
		return true
	}
	return false
}

const historyLimit = 12

// trigger matches ev against w's bindings and executes the most specific
// match.
func (bt *bindingTable) trigger(app *App, w *Window, ev *xproto.Event) {
	if historyTracked(ev.Type) {
		w.history = append(w.history, *ev)
		if len(w.history) > historyLimit {
			w.history = w.history[len(w.history)-historyLimit:]
		}
	}
	list := bt.byWindow[w.Path]
	if len(list) == 0 {
		return
	}
	var best *binding
	bestScore := -1
	for _, b := range list {
		last := b.seq[len(b.seq)-1]
		if int(ev.Type) != last.eventType {
			continue
		}
		var ok bool
		if historyTracked(ev.Type) {
			ok = matchSequence(b.seq, w.history)
		} else {
			ok = len(b.seq) == 1 && last.matchesEvent(ev)
		}
		if ok {
			if s := b.score(); s > bestScore {
				best, bestScore = b, s
			}
		}
	}
	if best == nil {
		return
	}
	cmd := substitutePercents(app, best.script, w, ev)
	if _, err := app.Interp.GlobalEval(cmd); err != nil {
		app.BackgroundError(fmt.Sprintf("binding %q on %s", best.spec, w.Path), err)
	}
}

// substitutePercents replaces % sequences in a bound command with event
// fields (Figure 7: "%x and %y will be replaced with the x- and
// y-coordinates from the X event").
func substitutePercents(app *App, script string, w *Window, ev *xproto.Event) string {
	if !strings.ContainsRune(script, '%') {
		return script
	}
	var b strings.Builder
	for i := 0; i < len(script); i++ {
		c := script[i]
		if c != '%' || i+1 >= len(script) {
			b.WriteByte(c)
			continue
		}
		i++
		switch script[i] {
		case '%':
			b.WriteByte('%')
		case 'x':
			b.WriteString(strconv.Itoa(int(ev.X)))
		case 'y':
			b.WriteString(strconv.Itoa(int(ev.Y)))
		case 'X':
			b.WriteString(strconv.Itoa(int(ev.RootX)))
		case 'Y':
			b.WriteString(strconv.Itoa(int(ev.RootY)))
		case 'b':
			b.WriteString(strconv.Itoa(int(ev.Detail)))
		case 'k':
			b.WriteString(strconv.Itoa(int(ev.Detail)))
		case 'K':
			b.WriteString(tcl.QuoteElement(xproto.KeysymName(ev.Keysym)))
		case 'A':
			b.WriteString(tcl.QuoteElement(xproto.KeysymRune(ev.Keysym, ev.State)))
		case 'W':
			b.WriteString(w.Path)
		case 'T':
			b.WriteString(strconv.Itoa(int(ev.Type)))
		case 't':
			b.WriteString(strconv.Itoa(int(ev.Time)))
		case 'w':
			b.WriteString(strconv.Itoa(int(ev.Width)))
		case 'h':
			b.WriteString(strconv.Itoa(int(ev.Height)))
		case 's':
			b.WriteString(strconv.Itoa(int(ev.State)))
		case 'E':
			if ev.SendEvent {
				b.WriteString("1")
			} else {
				b.WriteString("0")
			}
		default:
			b.WriteByte('%')
			b.WriteByte(script[i])
		}
	}
	return b.String()
}
