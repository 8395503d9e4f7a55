package tk

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/tcl"
	"repro/internal/xproto"
)

// commandTable returns the rows of the intrinsics' Tcl commands, their
// procedures bound to app. It is the single source of truth for the Tk
// command set: both registration and the static-analysis introspection
// in Commands read it. Together with the widget-creation commands these
// make "virtually all of the intrinsics accessible from Tcl" (§3).
func (app *App) commandTable() []tcl.Row {
	return []tcl.Row{
		{Name: "bind", Fn: app.cmdBind, Min: 1, Max: 3, Usage: "window ?pattern? ?command?"},
		{Name: "destroy", Fn: app.cmdDestroy, Max: -1, Usage: "?window ...?"},
		{Name: "update", Max: 1, Usage: "?idletasks?", Subs: []tcl.Row{
			{Name: "", Fn: func(*tcl.Interp, []string) (string, error) {
				app.Update()
				return "", nil
			}},
			{Name: "idletasks", Fn: func(*tcl.Interp, []string) (string, error) {
				app.UpdateIdleTasks()
				return "", nil
			}},
		}},
		{Name: "after", Fn: app.cmdAfter, Min: 1, Max: -1, Usage: "option ?arg ...?", Subs: []tcl.Row{
			{Name: "cancel", Fn: app.afterCancel, Min: 1, Max: 1, Usage: "id"},
			{Name: "idle", Fn: app.afterIdle, Min: 1, Max: -1, Usage: "script ?script ...?"},
		}},
		{Name: "focus", Fn: app.cmdFocus, Max: 1, Usage: "?window?"},
		{Name: "option", Min: 1, Max: -1, Usage: "cmd ?arg ...?", Subs: []tcl.Row{
			{Name: "add", Fn: app.optionAdd, Min: 2, Max: 3, Usage: "pattern value ?priority?"},
			{Name: "clear", Fn: func(*tcl.Interp, []string) (string, error) {
				app.options.Clear()
				return "", nil
			}},
			{Name: "get", Fn: app.onWindow(func(w *Window, args []string) (string, error) {
				return app.GetOption(w, args[3], args[4]), nil
			}), Min: 3, Max: 3, Usage: "window name class"},
			{Name: "readfile", Fn: app.optionReadfile, Min: 1, Max: 2, Usage: "fileName ?priority?"},
			{Name: "readstring", Fn: app.optionReadstring, Min: 1, Max: 2, Usage: "text ?priority?"},
		}},
		{Name: "selection", Min: 1, Max: -1, Usage: "option ?arg ...?", Subs: []tcl.Row{
			{Name: "clear", Fn: func(*tcl.Interp, []string) (string, error) {
				if app.selOwner != nil {
					app.ClearSelection(app.selOwner)
				}
				return "", nil
			}},
			{Name: "get", Fn: func(*tcl.Interp, []string) (string, error) { return app.GetSelection() }},
			{Name: "handle", Fn: app.selectionHandle, Min: 2, Max: 2, Usage: "window command"},
			{Name: "own", Fn: app.selectionOwn, Max: 1, Usage: "?window?"},
		}},
		{Name: "send", Fn: app.cmdSend, Min: 2, Max: -1, Usage: "appName command ?arg ...?"},
		{Name: "winfo", Min: 1, Max: -1, Usage: "option ?arg ...?", Subs: app.winfoTable()},
		{Name: "wm", Min: 2, Max: 3, Usage: "option window ?arg?", Subs: []tcl.Row{
			{Name: "deiconify", Fn: app.onWindow(func(w *Window, _ []string) (string, error) {
				w.withdrawn = false
				w.Map()
				return "", nil
			}), Min: 1, Max: 1, Usage: "window"},
			{Name: "geometry", Fn: app.onWindow(app.wmGeometry), Min: 1, Max: 2, Usage: "window ?newGeometry?"},
			{Name: "title", Fn: app.onWindow(app.wmTitle), Min: 1, Max: 2, Usage: "window ?newTitle?"},
			{Name: "withdraw", Fn: app.onWindow(func(w *Window, _ []string) (string, error) {
				w.withdrawn = true
				w.Unmap()
				return "", nil
			}), Min: 1, Max: 1, Usage: "window"},
		}},
		{Name: "raise", Fn: app.cmdRaise, Min: 1, Max: 1, Usage: "window"},
		{Name: "lower", Fn: app.cmdLower, Min: 1, Max: 1, Usage: "window"},
		{Name: "bell", Fn: func(*tcl.Interp, []string) (string, error) {
			app.Disp.Bell()
			return "", nil
		}},
		{Name: "tkwait", Min: 2, Max: 2, Usage: "option name", Subs: []tcl.Row{
			{Name: "variable", Fn: app.tkwaitVariable, Min: 1, Max: 1, Usage: "name"},
			{Name: "window", Fn: app.tkwaitWindow, Min: 1, Max: 1, Usage: "name"},
		}},
		{Name: "tkstats", Min: 1, Max: 2, Usage: "option ?arg?", Subs: app.tkstatsTable()},
		app.packer.row(),
	}
}

// Commands returns the rows of the Tcl commands the Tk intrinsics
// register in every application's interpreter. It needs no display
// connection and exists so tools such as cmd/tkcheck can read the
// command set statically.
func Commands() []tcl.Row {
	var app App
	return app.commandTable()
}

// onWindow returns the procedure of a subcommand whose first argument
// names a window, which runs fn on that window.
func (app *App) onWindow(fn func(w *Window, args []string) (string, error)) tcl.CmdFunc {
	return func(_ *tcl.Interp, args []string) (string, error) {
		w, err := app.NameToWindow(args[2])
		if err != nil {
			return "", err
		}
		return fn(w, args)
	}
}

func (app *App) cmdBind(in *tcl.Interp, args []string) (string, error) {
	w, err := app.NameToWindow(args[1])
	if err != nil {
		return "", err
	}
	res, mask, err := app.bindings.Bind(w.Path, args[2:])
	w.selectInput(mask)
	return res, err
}

func (app *App) cmdDestroy(in *tcl.Interp, args []string) (string, error) {
	for _, path := range args[1:] {
		w, err := app.NameToWindow(path)
		if err != nil {
			continue // destroying a dead window is a no-op, as in Tk
		}
		app.DestroyWindow(w)
	}
	return "", nil
}

// cmdAfter implements "after ms ?script ...?", the form whose first
// argument is not a subcommand.
func (app *App) cmdAfter(in *tcl.Interp, args []string) (string, error) {
	ms, err := strconv.Atoi(args[1])
	if err != nil || ms < 0 {
		return "", fmt.Errorf("bad milliseconds value %q", args[1])
	}
	if len(args) == 2 {
		// A sleep that keeps processing events.
		app.wait(time.Duration(ms)*time.Millisecond, func() bool { return false })
		return "", nil
	}
	script := strings.Join(args[2:], " ")
	id := app.CreateTimerHandler(time.Duration(ms)*time.Millisecond, func() {
		if _, err := in.GlobalEval(script); err != nil {
			app.BackgroundError("after script", err)
		}
	})
	return fmt.Sprintf("after#%d", id), nil
}

func (app *App) afterCancel(_ *tcl.Interp, args []string) (string, error) {
	id, err := strconv.Atoi(strings.TrimPrefix(args[2], "after#"))
	if err != nil {
		return "", fmt.Errorf("bad after id %q", args[2])
	}
	app.DeleteTimerHandler(id)
	return "", nil
}

func (app *App) afterIdle(in *tcl.Interp, args []string) (string, error) {
	script := strings.Join(args[2:], " ")
	app.DoWhenIdle(func() {
		if _, err := in.GlobalEval(script); err != nil {
			app.BackgroundError("after idle script", err)
		}
	})
	return "", nil
}

// cmdFocus implements the focus command (§3.7): query or assign the
// keyboard focus within the application.
func (app *App) cmdFocus(in *tcl.Interp, args []string) (string, error) {
	if len(args) == 1 {
		f, err := app.Disp.GetInputFocus()
		if err != nil {
			return "", err
		}
		if w, ok := app.xidMap[f]; ok {
			return w.Path, nil
		}
		return "none", nil
	}
	if args[1] == "none" {
		app.Disp.SetInputFocus(xproto.None)
		return "", nil
	}
	w, err := app.NameToWindow(args[1])
	if err != nil {
		return "", err
	}
	w.MakeExist()
	app.Disp.SetInputFocus(w.XID)
	return "", nil
}

func (app *App) optionAdd(_ *tcl.Interp, args []string) (string, error) {
	p, err := optionPriority(args, 4, PrioInteractive)
	if err != nil {
		return "", err
	}
	return "", app.AddOption(args[2], args[3], p)
}

// optionReadstring is the string form of readfile, used by tests and
// wish.
func (app *App) optionReadstring(_ *tcl.Interp, args []string) (string, error) {
	p, err := optionPriority(args, 3, PrioStartupFile)
	if err != nil {
		return "", err
	}
	return "", app.options.ReadString(args[2], p)
}

// optionReadfile loads a .Xdefaults-format file (§3.5).
func (app *App) optionReadfile(_ *tcl.Interp, args []string) (string, error) {
	p, err := optionPriority(args, 3, PrioStartupFile)
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(args[2])
	if err != nil {
		return "", fmt.Errorf("couldn't read %q: %v", args[2], err)
	}
	return "", app.options.ReadString(string(data), p)
}

// optionPriority reads the optional priority argument args[i] of an
// option subcommand: a standard level name or an integer from 0 to 100,
// and def when it is absent.
func optionPriority(args []string, i, def int) (int, error) {
	if len(args) <= i {
		return def, nil
	}
	s := args[i]
	switch s {
	case "widgetDefault":
		return PrioWidgetDefault, nil
	case "startupFile":
		return PrioStartupFile, nil
	case "userDefault":
		return PrioUserDefault, nil
	case "interactive":
		return PrioInteractive, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 100 {
		return 0, fmt.Errorf("bad priority %q: must be 0-100 or a standard level name", s)
	}
	return n, nil
}

func (app *App) selectionOwn(_ *tcl.Interp, args []string) (string, error) {
	if len(args) == 2 {
		if app.selOwner != nil {
			return app.selOwner.Path, nil
		}
		return "", nil
	}
	w, err := app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	app.OwnSelection(w, nil)
	return "", nil
}

func (app *App) selectionHandle(in *tcl.Interp, args []string) (string, error) {
	w, err := app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	script := args[3]
	app.SetSelectionHandler(w, func() string {
		res, err := in.GlobalEval(script)
		if err != nil {
			app.BackgroundError("selection handler", err)
			return ""
		}
		return res
	})
	return "", nil
}

// cmdSend implements §6: "send takes two arguments: the name of an
// application and a Tcl command".
func (app *App) cmdSend(in *tcl.Interp, args []string) (string, error) {
	script := args[2]
	if len(args) > 3 {
		script = strings.Join(args[2:], " ")
	}
	return app.Send(args[1], script)
}

// winfoTable returns the rows of winfo's subcommands.
func (app *App) winfoTable() []tcl.Row {
	// of is the row of a subcommand that reports on one window.
	of := func(name string, fn func(w *Window) string) tcl.Row {
		return tcl.Row{Name: name, Min: 1, Max: 1, Usage: "window", Fn: app.onWindow(func(w *Window, _ []string) (string, error) {
			return fn(w), nil
		})}
	}
	itoa := strconv.Itoa
	return []tcl.Row{
		of("children", func(w *Window) string {
			var out []string
			for _, ch := range w.Children {
				out = append(out, ch.Path)
			}
			return tcl.FormatList(out)
		}),
		of("class", func(w *Window) string { return w.Class }),
		// winfo containing is answered from the cached structure
		// information (§3.3), with no server round trip.
		{Name: "containing", Fn: app.winfoContaining, Min: 2, Max: 2, Usage: "rootX rootY"},
		{Name: "exists", Fn: func(_ *tcl.Interp, args []string) (string, error) {
			if app.WindowExists(args[2]) {
				return "1", nil
			}
			return "0", nil
		}, Min: 1, Max: 1, Usage: "window"},
		of("geometry", func(w *Window) string { return fmt.Sprintf("%dx%d+%d+%d", w.Width, w.Height, w.X, w.Y) }),
		of("height", func(w *Window) string { return itoa(w.Height) }),
		of("id", func(w *Window) string {
			w.MakeExist()
			return strconv.FormatUint(uint64(w.XID), 10)
		}),
		{Name: "interps", Fn: func(*tcl.Interp, []string) (string, error) {
			names := app.Interps()
			sort.Strings(names)
			return tcl.FormatList(names), nil
		}},
		of("ismapped", func(w *Window) string {
			if w.Mapped {
				return "1"
			}
			return "0"
		}),
		of("manager", func(w *Window) string {
			if w.Manager != nil {
				return w.Manager.Name()
			}
			return ""
		}),
		of("name", func(w *Window) string {
			if w.Path == "." {
				return app.Name
			}
			return w.Name
		}),
		of("parent", func(w *Window) string {
			if w.Parent == nil {
				return ""
			}
			return w.Parent.Path
		}),
		of("reqheight", func(w *Window) string { return itoa(w.ReqHeight) }),
		of("reqwidth", func(w *Window) string { return itoa(w.ReqWidth) }),
		of("rootx", func(w *Window) string {
			x, _ := w.RootCoords()
			return itoa(x)
		}),
		of("rooty", func(w *Window) string {
			_, y := w.RootCoords()
			return itoa(y)
		}),
		of("screenheight", func(*Window) string { return itoa(app.Disp.Height) }),
		of("screenwidth", func(*Window) string { return itoa(app.Disp.Width) }),
		of("toplevel", func(w *Window) string {
			for cur := w; cur != nil; cur = cur.Parent {
				if cur.TopLevel {
					return cur.Path
				}
			}
			return "."
		}),
		of("width", func(w *Window) string { return itoa(w.Width) }),
		of("x", func(w *Window) string { return itoa(w.X) }),
		of("y", func(w *Window) string { return itoa(w.Y) }),
	}
}

func (app *App) winfoContaining(_ *tcl.Interp, args []string) (string, error) {
	x, err1 := strconv.Atoi(args[2])
	y, err2 := strconv.Atoi(args[3])
	if err1 != nil || err2 != nil {
		return "", fmt.Errorf("expected integer coordinates")
	}
	if found := app.windowContaining(x, y); found != nil {
		return found.Path, nil
	}
	return "", nil
}

// wmTitle queries or sets the title the simulated server's built-in
// window manager shows from WM_NAME.
func (app *App) wmTitle(w *Window, args []string) (string, error) {
	w.MakeExist()
	if len(args) == 3 {
		rep, err := app.Disp.GetProperty(w.XID, xproto.AtomWMName, false)
		if err != nil {
			return "", err
		}
		return string(rep.Data), nil
	}
	app.Disp.ChangeProperty(w.XID, xproto.AtomWMName, xproto.AtomString, []byte(args[3]))
	return "", nil
}

func (app *App) wmGeometry(w *Window, args []string) (string, error) {
	if len(args) == 3 {
		return fmt.Sprintf("%dx%d+%d+%d", w.Width, w.Height, w.X, w.Y), nil
	}
	// The new geometry is WxH, +X+Y or WxH+X+Y.
	size, pos, hasPos := strings.Cut(args[3], "+")
	wd, ht, sized := ParsePair(size, "x")
	x, y, placed := ParsePair(pos, "+")
	switch {
	case sized && placed:
		app.resizeWindow(w, x, y, wd, ht, true)
	case sized && !hasPos:
		app.resizeWindow(w, w.X, w.Y, wd, ht, false)
	case size == "" && placed:
		app.resizeWindow(w, x, y, w.Width, w.Height, true)
	default:
		return "", fmt.Errorf("bad geometry specifier %q", args[3])
	}
	return "", nil
}

func (app *App) cmdRaise(in *tcl.Interp, args []string) (string, error) {
	w, err := app.NameToWindow(args[1])
	if err != nil {
		return "", err
	}
	w.makeSiblingsExist()
	app.Disp.RaiseWindow(w.XID)
	return "", nil
}

func (app *App) cmdLower(in *tcl.Interp, args []string) (string, error) {
	w, err := app.NameToWindow(args[1])
	if err != nil {
		return "", err
	}
	w.makeSiblingsExist()
	app.Disp.LowerWindow(w.XID)
	return "", nil
}

// tkwaitVariable runs the event loop until a global variable is
// written or unset, then removes its trace, as Tk's tkwait does.
func (app *App) tkwaitVariable(in *tcl.Interp, args []string) (string, error) {
	done := false
	trace := in.TraceGlobal(args[2], "wu", func(*tcl.Interp, string, string, string) {
		done = true
	})
	for !done && !app.Quitting() {
		app.DoOneEvent(true)
	}
	in.UntraceVar(trace)
	return "", nil
}

// tkwaitWindow runs the event loop until a window is destroyed.
func (app *App) tkwaitWindow(_ *tcl.Interp, args []string) (string, error) {
	for app.WindowExists(args[2]) && !app.Quitting() {
		app.DoOneEvent(true)
	}
	return "", nil
}
