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

// commandTable maps each intrinsics command name to its implementation.
// It is the single source of truth for the Tk command set: both
// registration and the static-analysis introspection in CommandNames
// derive from it.
func (app *App) commandTable() map[string]tcl.CmdFunc {
	return map[string]tcl.CmdFunc{
		"bind":      app.cmdBind,
		"destroy":   app.cmdDestroy,
		"update":    app.cmdUpdate,
		"after":     app.cmdAfter,
		"focus":     app.cmdFocus,
		"option":    app.cmdOption,
		"selection": app.cmdSelection,
		"send":      app.cmdSend,
		"winfo":     app.cmdWinfo,
		"wm":        app.cmdWm,
		"raise":     app.cmdRaise,
		"lower":     app.cmdLower,
		"bell": func(*tcl.Interp, []string) (string, error) {
			app.Disp.Bell()
			return "", nil
		},
		"tkwait":  app.cmdTkwait,
		"tkstats": app.cmdTkstats,
	}
}

// registerCommands installs the intrinsics' Tcl commands: bind, destroy,
// update, after, focus, option, selection, send, winfo and wm. Together
// with the widget-creation commands these make "virtually all of the
// intrinsics accessible from Tcl" (§3).
func registerCommands(app *App) {
	for name, fn := range app.commandTable() {
		app.Interp.Register(name, fn)
	}
}

// CommandNames returns, sorted, the Tcl command names the Tk intrinsics
// register in every application's interpreter (including "pack", which
// the geometry manager registers separately). It needs no display
// connection and exists so tools such as cmd/tkcheck can introspect the
// command set statically.
func CommandNames() []string {
	var app App
	table := app.commandTable()
	names := make([]string, 0, len(table)+1)
	for name := range table {
		names = append(names, name)
	}
	names = append(names, "pack")
	sort.Strings(names)
	return names
}

func (app *App) cmdBind(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 2 || len(args) > 4 {
		return "", fmt.Errorf(`wrong # args: should be "bind window ?pattern? ?command?"`)
	}
	w, err := app.NameToWindow(args[1])
	if err != nil {
		return "", err
	}
	switch len(args) {
	case 2:
		return tcl.FormatList(app.BoundSequences(w)), nil
	case 3:
		return app.BoundScript(w, args[2]), nil
	default:
		return "", app.Bind(w, args[2], args[3])
	}
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

func (app *App) cmdUpdate(in *tcl.Interp, args []string) (string, error) {
	if len(args) == 2 && args[1] == "idletasks" {
		app.UpdateIdleTasks()
		return "", nil
	}
	app.Update()
	return "", nil
}

// cmdAfter implements: after ms ?command ...?; after cancel id;
// after idle command.
func (app *App) cmdAfter(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf(`wrong # args: should be "after ms|cancel|idle ?arg ...?"`)
	}
	switch args[1] {
	case "cancel":
		if len(args) != 3 {
			return "", fmt.Errorf(`wrong # args: should be "after cancel id"`)
		}
		id, err := strconv.Atoi(strings.TrimPrefix(args[2], "after#"))
		if err != nil {
			return "", fmt.Errorf("bad after id %q", args[2])
		}
		app.DeleteTimerHandler(id)
		return "", nil
	case "idle":
		script := strings.Join(args[2:], " ")
		app.DoWhenIdle(func() {
			if _, err := in.GlobalEval(script); err != nil {
				app.BackgroundError("after idle script", err)
			}
		})
		return "", nil
	}
	ms, err := strconv.Atoi(args[1])
	if err != nil || ms < 0 {
		return "", fmt.Errorf("bad milliseconds value %q", args[1])
	}
	if len(args) == 2 {
		// Synchronous sleep that keeps processing events, as Tk does.
		deadline := time.Now().Add(time.Duration(ms) * time.Millisecond)
		for time.Now().Before(deadline) && !app.Quitting() {
			app.pumpOnce()
		}
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
	if len(args) != 2 {
		return "", fmt.Errorf(`wrong # args: should be "focus ?window?"`)
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

func (app *App) cmdOption(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf(`wrong # args: should be "option add|clear|get|readstring ..."`)
	}
	switch args[1] {
	case "add":
		if len(args) < 4 || len(args) > 5 {
			return "", fmt.Errorf(`wrong # args: should be "option add pattern value ?priority?"`)
		}
		p, err := optionPriority(args, 4, PrioInteractive)
		if err != nil {
			return "", err
		}
		return "", app.AddOption(args[2], args[3], p)
	case "clear":
		app.options.Clear()
		return "", nil
	case "get":
		if len(args) != 5 {
			return "", fmt.Errorf(`wrong # args: should be "option get window name class"`)
		}
		w, err := app.NameToWindow(args[2])
		if err != nil {
			return "", err
		}
		return app.GetOption(w, args[3], args[4]), nil
	case "readstring":
		// The string form of readfile, used by tests and wish.
		if len(args) < 3 || len(args) > 4 {
			return "", fmt.Errorf(`wrong # args: should be "option readstring text ?priority?"`)
		}
		p, err := optionPriority(args, 3, PrioStartupFile)
		if err != nil {
			return "", err
		}
		return "", app.options.ReadString(args[2], p)
	case "readfile":
		// Load a .Xdefaults-format file (§3.5).
		if len(args) < 3 || len(args) > 4 {
			return "", fmt.Errorf(`wrong # args: should be "option readfile fileName ?priority?"`)
		}
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
	return "", fmt.Errorf("bad option %q: should be add, clear, get, readfile, or readstring", args[1])
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

func (app *App) cmdSelection(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf(`wrong # args: should be "selection get|own|handle|clear ?arg ...?"`)
	}
	switch args[1] {
	case "get":
		return app.GetSelection()
	case "own":
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
	case "handle":
		if len(args) != 4 {
			return "", fmt.Errorf(`wrong # args: should be "selection handle window command"`)
		}
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
	case "clear":
		if app.selOwner != nil {
			app.ClearSelection(app.selOwner)
		}
		return "", nil
	}
	return "", fmt.Errorf("bad option %q: should be clear, get, handle, or own", args[1])
}

// cmdSend implements §6: "send takes two arguments: the name of an
// application and a Tcl command".
func (app *App) cmdSend(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", fmt.Errorf(`wrong # args: should be "send appName command ?arg ...?"`)
	}
	script := args[2]
	if len(args) > 3 {
		script = strings.Join(args[2:], " ")
	}
	return app.Send(args[1], script)
}

func (app *App) cmdWinfo(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf(`wrong # args: should be "winfo option ?window?"`)
	}
	op := args[1]
	if op == "interps" {
		names := app.Interps()
		sort.Strings(names)
		return tcl.FormatList(names), nil
	}
	if op == "containing" {
		// winfo containing rootX rootY — answered from the cached
		// structure information (§3.3), no server round trip.
		if len(args) != 4 {
			return "", fmt.Errorf(`wrong # args: should be "winfo containing rootX rootY"`)
		}
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
	if len(args) != 3 {
		return "", fmt.Errorf(`wrong # args: should be "winfo %s window"`, op)
	}
	path := args[2]
	if op == "exists" {
		if app.WindowExists(path) {
			return "1", nil
		}
		return "0", nil
	}
	w, err := app.NameToWindow(path)
	if err != nil {
		return "", err
	}
	switch op {
	case "name":
		if w.Path == "." {
			return app.Name, nil
		}
		return w.Name, nil
	case "class":
		return w.Class, nil
	case "children":
		var out []string
		for _, ch := range w.Children {
			out = append(out, ch.Path)
		}
		return tcl.FormatList(out), nil
	case "parent":
		if w.Parent == nil {
			return "", nil
		}
		return w.Parent.Path, nil
	case "width":
		return strconv.Itoa(w.Width), nil
	case "height":
		return strconv.Itoa(w.Height), nil
	case "reqwidth":
		return strconv.Itoa(w.ReqWidth), nil
	case "reqheight":
		return strconv.Itoa(w.ReqHeight), nil
	case "x":
		return strconv.Itoa(w.X), nil
	case "y":
		return strconv.Itoa(w.Y), nil
	case "rootx":
		x, _ := w.RootCoords()
		return strconv.Itoa(x), nil
	case "rooty":
		_, y := w.RootCoords()
		return strconv.Itoa(y), nil
	case "ismapped":
		if w.Mapped {
			return "1", nil
		}
		return "0", nil
	case "geometry":
		return fmt.Sprintf("%dx%d+%d+%d", w.Width, w.Height, w.X, w.Y), nil
	case "toplevel":
		for cur := w; cur != nil; cur = cur.Parent {
			if cur.TopLevel {
				return cur.Path, nil
			}
		}
		return ".", nil
	case "id":
		w.MakeExist()
		return strconv.FormatUint(uint64(w.XID), 10), nil
	case "manager":
		if w.Manager != nil {
			return w.Manager.Name(), nil
		}
		return "", nil
	case "screenwidth":
		return strconv.Itoa(app.Disp.Width), nil
	case "screenheight":
		return strconv.Itoa(app.Disp.Height), nil
	}
	return "", fmt.Errorf("bad option %q to winfo", op)
}

// cmdWm is a minimal window-manager interface: title, geometry, withdraw
// and deiconify (the simulated server's built-in WM honors WM_NAME for
// its title bars).
func (app *App) cmdWm(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", fmt.Errorf(`wrong # args: should be "wm option window ?arg?"`)
	}
	w, err := app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	switch args[1] {
	case "title":
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
	case "geometry":
		if len(args) == 3 {
			return fmt.Sprintf("%dx%d+%d+%d", w.Width, w.Height, w.X, w.Y), nil
		}
		var wd, ht, x, y int
		if n, _ := fmt.Sscanf(args[3], "%dx%d+%d+%d", &wd, &ht, &x, &y); n == 4 {
			app.resizeWindow(w, x, y, wd, ht, true)
			return "", nil
		}
		if n, _ := fmt.Sscanf(args[3], "%dx%d", &wd, &ht); n == 2 {
			app.resizeWindow(w, w.X, w.Y, wd, ht, false)
			return "", nil
		}
		if n, _ := fmt.Sscanf(args[3], "+%d+%d", &x, &y); n == 2 {
			app.resizeWindow(w, x, y, w.Width, w.Height, true)
			return "", nil
		}
		return "", fmt.Errorf("bad geometry specifier %q", args[3])
	case "withdraw":
		w.withdrawn = true
		w.Unmap()
		return "", nil
	case "deiconify":
		w.withdrawn = false
		w.Map()
		return "", nil
	}
	return "", fmt.Errorf("bad option %q to wm", args[1])
}

func (app *App) cmdRaise(in *tcl.Interp, args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf(`wrong # args: should be "raise window"`)
	}
	w, err := app.NameToWindow(args[1])
	if err != nil {
		return "", err
	}
	w.makeSiblingsExist()
	app.Disp.RaiseWindow(w.XID)
	return "", nil
}

func (app *App) cmdLower(in *tcl.Interp, args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf(`wrong # args: should be "lower window"`)
	}
	w, err := app.NameToWindow(args[1])
	if err != nil {
		return "", err
	}
	w.makeSiblingsExist()
	app.Disp.LowerWindow(w.XID)
	return "", nil
}

// cmdTkwait blocks, processing events, until a variable is written or a
// window is destroyed.
func (app *App) cmdTkwait(in *tcl.Interp, args []string) (string, error) {
	if len(args) != 3 {
		return "", fmt.Errorf(`wrong # args: should be "tkwait variable|window name"`)
	}
	switch args[1] {
	case "variable":
		done := false
		in.TraceGlobal(args[2], "w", func(*tcl.Interp, string, string, string) {
			done = true
		})
		for !done && !app.Quitting() {
			app.pumpOnce()
		}
		return "", nil
	case "window":
		for app.WindowExists(args[2]) && !app.Quitting() {
			app.pumpOnce()
		}
		return "", nil
	}
	return "", fmt.Errorf("bad option %q: should be variable or window", args[1])
}
