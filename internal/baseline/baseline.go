// Package baseline implements a small Xt-style widget toolkit — the
// "no composition language" baseline for the paper's Table I argument.
//
// Section 7 of the paper attributes Xt/Motif's bulk to the absence of a
// run-time composition language: "all run-time needs must be predicted
// and addressed explicitly in the C code", and behaviour has to flow
// through special-purpose mini-languages like the Xt translation manager
// instead of one general language. This package reproduces that
// architecture faithfully, in miniature, so the difference is measurable
// here: widget classes with class records, resource lists accessed
// through SetValues/GetValues, callback lists registered procedure by
// procedure, and a translation-table mini-language binding event
// specifications to named action procedures.
//
// Everything a Tk widget does in one Tcl string ("-command {print hi}")
// takes three mechanisms here: an action procedure compiled into the
// class, a translation entry naming it, and a callback registration to
// get application code invoked. That structural overhead — not any
// cleverness in Tk's C code — is what Table I measures, and what
// BenchmarkBaselineVsTclButton compares.
package baseline

import (
	"fmt"
	"strings"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

// CallbackProc is application code attached to a widget callback list.
type CallbackProc func(w *Widget, callData any)

// ActionProc is a behaviour procedure named by translation tables.
type ActionProc func(w *Widget, ev *xproto.Event, params []string)

// Class is a widget class record: the static description Xt keeps per
// widget type.
type Class struct {
	Name string
	// Resources lists the resource names the class understands, with
	// defaults.
	Resources map[string]string
	// Actions maps action names (used in translations) to procedures.
	Actions map[string]ActionProc
	// DefaultTranslations is the class's translation table source.
	DefaultTranslations string
	// Initialize computes initial geometry from resources.
	Initialize func(w *Widget)
	// Redisplay repaints the widget.
	Redisplay func(w *Widget)
}

// translation is one parsed translation-table entry.
type translation struct {
	eventType int
	detail    uint32
	mods      uint16
	actions   []actionCall
}

type actionCall struct {
	name   string
	params []string
}

// Widget is a widget instance record.
type Widget struct {
	tk        *Toolkit
	class     *Class
	xid       xproto.ID
	resources map[string]string
	callbacks map[string][]CallbackProc
	trans     []translation

	X, Y, Width, Height int

	// Per-instance scratch state used by class actions (armed buttons,
	// scrollbar drag state...).
	Armed bool
	State map[string]int
}

// Toolkit is the Xt "application context": display, widget table and
// event dispatch.
type Toolkit struct {
	Disp    *xclient.Display
	widgets map[xproto.ID]*Widget
	font    *xclient.Font
}

// NewToolkit initializes the baseline toolkit over a display connection.
func NewToolkit(d *xclient.Display) (*Toolkit, error) {
	font, err := d.OpenFont("fixed")
	if err != nil {
		return nil, err
	}
	return &Toolkit{Disp: d, widgets: make(map[xproto.ID]*Widget), font: font}, nil
}

// Font exposes the toolkit's font for class code.
func (tk *Toolkit) Font() *xclient.Font { return tk.font }

// CreateWidget instantiates a class as a child of parent (None = root).
func (tk *Toolkit) CreateWidget(class *Class, parent xproto.ID, args map[string]string) (*Widget, error) {
	if parent == xproto.None {
		parent = tk.Disp.Root
	}
	w := &Widget{
		tk:        tk,
		class:     class,
		resources: make(map[string]string, len(class.Resources)),
		callbacks: make(map[string][]CallbackProc),
		State:     make(map[string]int),
		Width:     1, Height: 1,
	}
	for k, v := range class.Resources {
		w.resources[k] = v
	}
	for k, v := range args {
		if _, ok := class.Resources[k]; !ok {
			return nil, fmt.Errorf("widget class %s has no resource %q", class.Name, k)
		}
		w.resources[k] = v
	}
	trans, err := ParseTranslations(class.DefaultTranslations)
	if err != nil {
		return nil, fmt.Errorf("class %s translations: %w", class.Name, err)
	}
	w.trans = trans
	w.xid = tk.Disp.CreateWindow(parent, 0, 0, 1, 1, 0, xclient.WindowAttributes{
		Background: 0xffe4c4,
		EventMask:  requiredEventMask(trans) | xproto.ExposureMask | xproto.StructureNotifyMask,
	})
	tk.widgets[w.xid] = w
	if class.Initialize != nil {
		class.Initialize(w)
	}
	return w, nil
}

// DestroyWidget removes a widget and its window.
func (tk *Toolkit) DestroyWidget(w *Widget) {
	delete(tk.widgets, w.xid)
	tk.Disp.DestroyWindow(w.xid)
}

// XID exposes the widget's window for geometry management by the caller
// (the baseline has no geometry managers — the application positions
// windows itself, another chore Tk's packer absorbs).
func (w *Widget) XID() xproto.ID { return w.xid }

// SetGeometry positions and sizes the widget explicitly.
func (w *Widget) SetGeometry(x, y, width, height int) {
	w.X, w.Y, w.Width, w.Height = x, y, width, height
	w.tk.Disp.MoveResizeWindow(w.xid, x, y, width, height)
}

// Realize maps the widget.
func (w *Widget) Realize() { w.tk.Disp.MapWindow(w.xid) }

// AddCallback registers application code on a named callback list
// (XtAddCallback).
func (w *Widget) AddCallback(name string, fn CallbackProc) {
	w.callbacks[name] = append(w.callbacks[name], fn)
}

// CallCallbacks invokes a callback list (XtCallCallbacks); class actions
// use it to reach application code.
func (w *Widget) CallCallbacks(name string, callData any) {
	for _, fn := range w.callbacks[name] {
		fn(w, callData)
	}
}

// GetValues reads resources (XtGetValues).
func (w *Widget) GetValues(names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = w.resources[n]
	}
	return out
}

// SetValues updates resources and triggers redisplay (XtSetValues).
func (w *Widget) SetValues(values map[string]string) error {
	for k, v := range values {
		if _, ok := w.class.Resources[k]; !ok {
			return fmt.Errorf("widget class %s has no resource %q", w.class.Name, k)
		}
		w.resources[k] = v
	}
	if w.class.Initialize != nil {
		w.class.Initialize(w)
	}
	w.Redisplay()
	return nil
}

// Redisplay repaints now.
func (w *Widget) Redisplay() {
	if w.class.Redisplay != nil {
		w.class.Redisplay(w)
	}
}

// OverrideTranslations merges new translation source into the instance
// (XtOverrideTranslations).
func (w *Widget) OverrideTranslations(source string) error {
	trans, err := ParseTranslations(source)
	if err != nil {
		return err
	}
	w.trans = append(trans, w.trans...)
	w.tk.Disp.SelectInput(w.xid,
		requiredEventMask(w.trans)|xproto.ExposureMask|xproto.StructureNotifyMask)
	return nil
}

// DispatchEvent routes one X event through translations (the Xt
// translation manager's dispatch step).
func (tk *Toolkit) DispatchEvent(ev *xproto.Event) {
	w, ok := tk.widgets[ev.Window]
	if !ok {
		return
	}
	switch ev.Type {
	case xproto.Expose:
		w.Redisplay()
		return
	case xproto.ConfigureNotify:
		w.X, w.Y = int(ev.X), int(ev.Y)
		w.Width, w.Height = int(ev.Width), int(ev.Height)
		return
	}
	for _, tr := range w.trans {
		if tr.eventType != int(ev.Type) {
			continue
		}
		if tr.detail != 0 {
			detail := ev.Detail
			if tr.eventType == xproto.KeyPress || tr.eventType == xproto.KeyRelease {
				detail = uint32(ev.Keysym)
			}
			if detail != tr.detail {
				continue
			}
		}
		if ev.State&tr.mods != tr.mods {
			continue
		}
		for _, a := range tr.actions {
			fn := w.class.Actions[a.name]
			if fn == nil {
				continue
			}
			fn(w, ev, a.params)
		}
		return
	}
}

// ProcessPending dispatches every event the server has sent so far.
func (tk *Toolkit) ProcessPending() {
	tk.Disp.Flush()
	for {
		ev, ok, _ := tk.Disp.PollEvent()
		if !ok {
			return
		}
		tk.DispatchEvent(&ev)
	}
}

// Sync flushes, waits for the server, then processes everything pending.
func (tk *Toolkit) Sync() {
	if err := tk.Disp.Sync(); err != nil {
		return
	}
	tk.ProcessPending()
}

// ParseTranslations compiles translation-table source: one entry per
// line, "<EventSpec>: Action1() Action2(param)". Event specs follow Xt's
// names: <Btn1Down>, <Btn1Up>, <EnterWindow>, <LeaveWindow>, <Key>q,
// <Motion>, and modifiers like Ctrl<Key>q.
func ParseTranslations(source string) ([]translation, error) {
	var out []translation
	for _, line := range strings.Split(source, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") {
			continue
		}
		colon := strings.Index(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("missing ':' in translation %q", line)
		}
		spec := strings.TrimSpace(line[:colon])
		var tr translation

		// Leading modifiers before '<'.
		lt := strings.IndexByte(spec, '<')
		if lt < 0 {
			return nil, fmt.Errorf("missing event in translation %q", line)
		}
		for _, mod := range strings.Fields(spec[:lt]) {
			switch mod {
			case "Ctrl":
				tr.mods |= xproto.ControlMask
			case "Shift":
				tr.mods |= xproto.ShiftMask
			case "Meta":
				tr.mods |= xproto.Mod1Mask
			default:
				return nil, fmt.Errorf("unknown modifier %q in %q", mod, line)
			}
		}
		gt := strings.IndexByte(spec, '>')
		if gt < lt {
			return nil, fmt.Errorf("missing '>' in translation %q", line)
		}
		evName := spec[lt+1 : gt]
		detail := strings.TrimSpace(spec[gt+1:])
		switch evName {
		case "Btn1Down":
			tr.eventType, tr.detail = xproto.ButtonPress, 1
		case "Btn2Down":
			tr.eventType, tr.detail = xproto.ButtonPress, 2
		case "Btn3Down":
			tr.eventType, tr.detail = xproto.ButtonPress, 3
		case "Btn1Up":
			tr.eventType, tr.detail = xproto.ButtonRelease, 1
		case "BtnDown":
			tr.eventType = xproto.ButtonPress
		case "BtnUp":
			tr.eventType = xproto.ButtonRelease
		case "EnterWindow":
			tr.eventType = xproto.EnterNotify
		case "LeaveWindow":
			tr.eventType = xproto.LeaveNotify
		case "Motion":
			tr.eventType = xproto.MotionNotify
		case "Key", "KeyPress":
			tr.eventType = xproto.KeyPress
			if detail != "" {
				ks, ok := xproto.KeysymFromName(detail)
				if !ok {
					return nil, fmt.Errorf("bad keysym %q in %q", detail, line)
				}
				tr.detail = uint32(ks)
			}
		default:
			return nil, fmt.Errorf("unknown event %q in translation %q", evName, line)
		}

		// Action list.
		for _, tok := range strings.Fields(strings.TrimSpace(line[colon+1:])) {
			open := strings.IndexByte(tok, '(')
			closeP := strings.LastIndexByte(tok, ')')
			if open < 0 || closeP < open {
				return nil, fmt.Errorf("malformed action %q in %q", tok, line)
			}
			call := actionCall{name: tok[:open]}
			if args := tok[open+1 : closeP]; args != "" {
				call.params = strings.Split(args, ",")
			}
			tr.actions = append(tr.actions, call)
		}
		out = append(out, tr)
	}
	return out, nil
}

// requiredEventMask computes the X selection needed by a translation set.
func requiredEventMask(trans []translation) uint32 {
	var mask uint32
	for _, tr := range trans {
		mask |= xproto.EventMaskFor(tr.eventType)
	}
	return mask
}
