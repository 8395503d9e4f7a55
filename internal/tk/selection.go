package tk

import (
	"fmt"
	"time"

	"repro/internal/xproto"
)

// Selection support (§3.6): Tk implements the ICCCM selection protocols
// and hides their details. A widget that supports the selection registers
// a selection handler; claiming the selection notifies the previous owner
// (possibly in another application) via the server; retrieving it either
// short-circuits within the application or performs the full ICCCM
// ConvertSelection / SelectionNotify / property dance.

// selHandlers is stored on App lazily.
type selState struct {
	handlers map[*Window]func() string
	notify   *xproto.Event // most recent SelectionNotify, consumed by Get
}

func (app *App) sel() *selState {
	if app.selStatePtr == nil {
		app.selStatePtr = &selState{handlers: make(map[*Window]func() string)}
	}
	return app.selStatePtr
}

// SetSelectionHandler registers the procedure Tk calls to retrieve the
// selection when win owns it (§3.6's "selection handler").
func (app *App) SetSelectionHandler(win *Window, fn func() string) {
	app.sel().handlers[win] = fn
}

// OwnSelection claims the PRIMARY selection for win. lost is invoked if
// some other widget (possibly in another application) later claims it.
// When another window of this same application held the selection, its
// lost callback runs immediately (as in Tk_OwnSelection): the server's
// SelectionClear would arrive after the local owner has already changed.
func (app *App) OwnSelection(win *Window, lost func(win *Window)) {
	if old := app.selOwner; old != nil && old != win && app.selLost != nil {
		app.selLost(old)
	}
	app.selOwner = win
	app.selLost = lost
	win.MakeExist()
	app.Disp.SetSelectionOwner(xproto.AtomPrimary, win.XID, 0)
}

// ClearSelection gives up the selection if win owns it.
func (app *App) ClearSelection(win *Window) {
	if app.selOwner == win {
		app.selOwner = nil
		app.Disp.SetSelectionOwner(xproto.AtomPrimary, xproto.None, 0)
	}
}

// handleSelectionRequest services an ICCCM SelectionRequest event: call
// the owner's selection handler and hand the result to the requestor.
func (app *App) handleSelectionRequest(ev *xproto.Event) {
	w := app.xidMap[ev.Window]
	refuse := func() {
		app.Disp.SendEvent(ev.Requestor, 0, &xproto.Event{
			Type:      xproto.SelectionNotify,
			Requestor: ev.Requestor,
			Selection: ev.Selection,
			Target:    ev.Target,
			Property:  xproto.AtomNone,
			Time:      ev.Time,
		})
		app.Disp.Flush()
	}
	if w == nil {
		refuse()
		return
	}
	handler := app.sel().handlers[w]
	if handler == nil {
		refuse()
		return
	}
	value := handler()
	app.Disp.ChangeProperty(ev.Requestor, ev.Property, xproto.AtomString, []byte(value))
	app.Disp.SendEvent(ev.Requestor, 0, &xproto.Event{
		Type:      xproto.SelectionNotify,
		Requestor: ev.Requestor,
		Selection: ev.Selection,
		Target:    ev.Target,
		Property:  ev.Property,
		Time:      ev.Time,
	})
	app.Disp.Flush()
}

// handleSelectionClear processes loss of ownership.
func (app *App) handleSelectionClear(ev *xproto.Event) {
	w := app.xidMap[ev.Window]
	if w != nil && app.selOwner == w {
		app.selOwner = nil
		if app.selLost != nil {
			app.selLost(w)
		}
	}
}

// GetSelection retrieves the current PRIMARY selection as a string. When
// the owner lives in this application the handler is called directly;
// otherwise the ICCCM protocol runs against the current owner, and the
// event loop runs until the answer arrives or 2 s pass.
func (app *App) GetSelection() (string, error) {
	if app.selOwner != nil {
		if h := app.sel().handlers[app.selOwner]; h != nil {
			return h(), nil
		}
	}
	// Ask the server who owns it; none means no selection.
	owner, err := app.Disp.GetSelectionOwner(xproto.AtomPrimary)
	if err != nil {
		return "", err
	}
	if owner == xproto.None {
		return "", fmt.Errorf("PRIMARY selection doesn't exist or form \"STRING\" not defined")
	}
	app.sel().notify = nil
	app.Disp.ConvertSelection(xproto.AtomPrimary, xproto.AtomString,
		app.atomSelProp, app.Main.XID, 0)
	if !app.wait(2*time.Second, func() bool { return app.sel().notify != nil }) {
		return "", fmt.Errorf("selection owner didn't respond")
	}
	ev := app.sel().notify
	app.sel().notify = nil
	if ev.Property == xproto.AtomNone {
		return "", fmt.Errorf("PRIMARY selection doesn't exist or form \"STRING\" not defined")
	}
	rep, err := app.Disp.GetProperty(app.Main.XID, ev.Property, true)
	if err != nil {
		return "", err
	}
	if !rep.Found {
		return "", fmt.Errorf("selection property was empty")
	}
	return string(rep.Data), nil
}
