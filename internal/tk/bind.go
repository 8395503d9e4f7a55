package tk

import (
	"fmt"
	"slices"
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
// command, %-sequences are replaced with fields from the event. The same
// table serves the canvas's items and the text's tags (§6: "associating
// Tcl commands with pieces of text or graphics"), as tkBind.c serves
// Tk's canvas and text widgets.

// pattern is one event in a binding sequence.
type pattern struct {
	eventType int    // xproto event type
	detail    uint32 // keysym or button number; 0 = any
	mods      uint16 // required modifier mask; extra modifiers are ignored, so "Any-" adds nothing
	count     int    // 1, or 2/3 for Double/Triple
}

// binding is one bound sequence.
type binding struct {
	spec   string
	seq    []pattern
	script string
}

// A BindingTable holds the bindings of named objects, as tkBind.c's
// Tk_BindingTable does: an application's table names windows by path,
// a canvas's names items by id or tag, a text's names tags.
type BindingTable struct {
	byObject map[string][]*binding
}

// NewBindingTable returns an empty table.
func NewBindingTable() *BindingTable {
	return &BindingTable{byObject: make(map[string][]*binding)}
}

// Bind answers the arguments of a bind command for object, args being
// the words after the object. With none it lists the object's
// sequences; with a sequence, the script bound to it ("" for none); with
// a sequence and a script it binds the script, replacing the sequence's
// script, or appending to it when the script starts with "+", or
// deleting the binding when the script is empty. mask is the X event
// mask a new binding needs selected, else 0.
func (bt *BindingTable) Bind(object string, args []string) (result string, mask uint32, err error) {
	list := bt.byObject[object]
	if len(args) == 0 {
		specs := make([]string, len(list))
		for i, b := range list {
			specs[i] = b.spec
		}
		sort.Strings(specs)
		return tcl.FormatList(specs), 0, nil
	}
	spec := args[0]
	seq, err := parseSequence(spec)
	if err != nil {
		return "", 0, err
	}
	// A binding is named by its parsed sequence, so every spelling of
	// one sequence, such as <1>, <Button-1> and <ButtonPress-1>, names
	// the same binding.
	idx := slices.IndexFunc(list, func(b *binding) bool { return slices.Equal(b.seq, seq) })
	if len(args) == 1 {
		if idx < 0 {
			return "", 0, nil
		}
		return list[idx].script, 0, nil
	}
	script, appended := strings.CutPrefix(args[1], "+")
	switch {
	case args[1] == "":
		if idx >= 0 {
			bt.byObject[object] = slices.Delete(list, idx, idx+1)
		}
		return "", 0, nil
	case appended && idx >= 0:
		list[idx].script += "\n" + script
		return "", 0, nil
	}
	b := &binding{spec: spec, seq: seq, script: script}
	if idx >= 0 {
		list[idx] = b
	} else {
		bt.byObject[object] = append(list, b)
	}
	return "", requiredMask(seq), nil
}

// Forget deletes every binding of object.
func (bt *BindingTable) Forget(object string) {
	delete(bt.byObject, object)
}

// CheckSequence reports whether bind accepts sequence, with the error
// bind would raise. It exists for tools such as cmd/tkcheck.
func CheckSequence(sequence string) error {
	_, err := parseSequence(sequence)
	return err
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

// Trigger runs the binding that matches ev of the first of objects that
// has one, as tkBind.c's Tk_BindEvent does: of that object's matching
// bindings, the most specific, with its %-sequences replaced from ev and
// w. w is the window ev went to, and its history holds the device events
// a multi-event sequence matches.
func (bt *BindingTable) Trigger(w *Window, ev *xproto.Event, objects ...string) {
	for _, object := range objects {
		var best *binding
		bestScore := -1
		for _, b := range bt.byObject[object] {
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
		if best != nil {
			if _, err := w.App.Interp.GlobalEval(substitutePercents(best.script, w, ev)); err != nil {
				w.App.BackgroundError(fmt.Sprintf("binding %q on %s", best.spec, w.Path), err)
			}
			return
		}
	}
}

// substitutePercents replaces % sequences in a bound command with event
// fields (Figure 7: "%x and %y will be replaced with the x- and
// y-coordinates from the X event").
func substitutePercents(script string, w *Window, ev *xproto.Event) string {
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
