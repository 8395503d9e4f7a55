package tk

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/tcl"
	"repro/internal/xproto"
)

// The send command (§6): a remote-procedure-call facility between Tk
// applications on the same display. Each application registers its name
// and communication window in a property on the root window; send locates
// the target through the registry, forwards the command via a property on
// the target's communication window, and the answer comes back the same
// way. Everything rides on ordinary X requests, so it works between
// separate operating-system processes sharing one (simulated) display.

// DefaultSendTimeout bounds how long a sender waits for the target to
// answer; App.SendTimeout overrides it per application.
const DefaultSendTimeout = 5 * time.Second

// Each of the three send properties — the root window's registry, and
// a communication window's commands and results — is one Tcl list of
// records of n fields: {xid name} in the registry, {serial responder
// script} for a command and {serial code result} for a result. A
// record is appended as its fields' list and a space, so a field may
// hold anything a list element can, newlines included, and a property
// is read back with one ParseList.

// appendRecord appends one record of fields to a property's bytes.
func appendRecord(dst []byte, fields ...string) []byte {
	return append(append(dst, tcl.FormatList(fields)...), ' ')
}

// readRecords splits a property into its records of n fields. A
// property that is not a list, or whose length is not a multiple of n,
// is dropped whole.
func readRecords(data []byte, n int) [][]string {
	fields, err := tcl.ParseList(string(data))
	if err != nil || len(fields)%n != 0 {
		return nil
	}
	recs := make([][]string, 0, len(fields)/n)
	for i := 0; i < len(fields); i += n {
		recs = append(recs, fields[i:i+n])
	}
	return recs
}

// registryEntries reads the root-window registry property: its {xid
// name} records.
func (app *App) registryEntries() ([][]string, error) {
	rep, err := app.Disp.GetProperty(app.Disp.Root, app.atomRegistry, false)
	if err != nil {
		return nil, err
	}
	return readRecords(rep.Data, 2), nil
}

// writeRegistry replaces the registry property.
func (app *App) writeRegistry(entries [][]string) {
	var data []byte
	for _, e := range entries {
		data = appendRecord(data, e[0], e[1])
	}
	app.Disp.ChangeProperty(app.Disp.Root, app.atomRegistry, xproto.AtomString, data)
}

// registerName adds this application to the registry, uniquifying its
// name ("browse", "browse #2", ...) as Tk does.
func (app *App) registerName(want string) error {
	entries, err := app.registryEntries()
	if err != nil {
		return err
	}
	taken := make(map[string]bool, len(entries))
	for _, e := range entries {
		taken[e[1]] = true
	}
	name := want
	for n := 2; taken[name]; n++ {
		name = fmt.Sprintf("%s #%d", want, n)
	}
	app.Name = name
	app.options.dropStack()
	entries = append(entries, []string{strconv.FormatUint(uint64(app.commWin), 10), name})
	app.writeRegistry(entries)
	app.registered = true
	// Sync so the registry write is applied at the server before this
	// application claims to exist; otherwise another client could look
	// us up in a stale registry.
	return app.Disp.Sync()
}

// unregisterName removes this application from the registry.
func (app *App) unregisterName() {
	if !app.registered || app.Disp.Closed() {
		return
	}
	app.registered = false
	app.pruneRegistryName(app.Name)
}

// pruneRegistryName removes one named entry from the send registry —
// our own on shutdown, or a vanished peer's when a send discovers its
// communication window is gone.
func (app *App) pruneRegistryName(name string) {
	entries, err := app.registryEntries()
	if err != nil {
		return
	}
	out := entries[:0]
	for _, e := range entries {
		if e[1] != name {
			out = append(out, e)
		}
	}
	app.writeRegistry(out)
	app.Disp.Flush()
}

// Interps lists the registered application names (winfo interps).
func (app *App) Interps() []string {
	entries, err := app.registryEntries()
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e[1])
	}
	return names
}

// lookupApp resolves an application name to its communication window.
func (app *App) lookupApp(name string) (xproto.ID, error) {
	entries, err := app.registryEntries()
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e[1] == name {
			xid, err := strconv.ParseUint(e[0], 10, 32)
			if err != nil {
				continue
			}
			return xproto.ID(xid), nil
		}
	}
	return 0, fmt.Errorf("no registered interpreter named %q", name)
}

// Send invokes a Tcl command in the named application and returns its
// result — the paper's remote procedure call. The target evaluates it
// at global level, and sending to ourselves simply evaluates locally, as
// Tk does.
func (app *App) Send(target, script string) (string, error) {
	if target == app.Name {
		return app.Interp.GlobalEval(script)
	}
	commXID, err := app.lookupApp(target)
	if err != nil {
		return "", err
	}
	app.sendSerial++
	serial := app.sendSerial
	payload := appendRecord(nil, strconv.Itoa(serial), strconv.FormatUint(uint64(app.commWin), 10), script)
	app.Disp.AppendProperty(commXID, app.atomSendCmd, xproto.AtomString, payload)
	if err := app.Disp.Flush(); err != nil {
		return "", err
	}
	// Run the event loop until the result arrives: the target may send
	// us commands of its own in the meantime (reentrancy), and we must
	// keep servicing them to avoid deadlock.
	timeout := app.SendTimeout
	if timeout <= 0 {
		timeout = DefaultSendTimeout
	}
	begin := time.Now()
	if !app.wait(timeout, func() bool { _, ok := app.sendResults[serial]; return ok }) {
		if app.Quitting() {
			return "", fmt.Errorf("application destroyed while waiting for send result")
		}
		app.sendTimeouts.Inc()
		// Probe the target's communication window: a peer that crashed
		// or closed its display no longer has one (the server destroys a
		// departed client's windows), so distinguish "dead and gone" from
		// "alive but unresponsive" — and prune dead peers from the
		// registry so `winfo interps` stops listing them and later sends
		// fail fast.
		if _, gerr := app.Disp.GetGeometry(commXID); gerr != nil && !app.Disp.Closed() {
			app.pruneRegistryName(target)
			return "", fmt.Errorf("target application %q has exited (its communication window is gone); removed it from the registry", target)
		}
		return "", fmt.Errorf("target application %q did not respond within %v", target, timeout)
	}
	res := app.sendResults[serial]
	delete(app.sendResults, serial)
	// The histogram records only completed RPCs (success or remote
	// error), not timeouts.
	app.sendHist.Observe(time.Since(begin))
	if res.code != 0 {
		return "", &tcl.Error{Code: tcl.ErrorStatus, Msg: res.result}
	}
	return res.result, nil
}

// handleCommEvent services PropertyNotify events on the communication
// window: incoming commands to execute, and results for our own sends.
func (app *App) handleCommEvent(ev *xproto.Event) {
	if ev.Type != xproto.PropertyNotify || ev.PropState != xproto.PropertyNewValue {
		return
	}
	switch ev.Atom {
	case app.atomSendCmd:
		rep, err := app.Disp.GetProperty(app.commWin, app.atomSendCmd, true)
		if err != nil || !rep.Found {
			return
		}
		for _, rec := range readRecords(rep.Data, 3) {
			responder, err := strconv.ParseUint(rec[1], 10, 32)
			if err != nil {
				continue
			}
			result, evalErr := app.Interp.GlobalEval(rec[2])
			code := "0"
			if evalErr != nil {
				code = "1"
				result = evalErr.Error()
			}
			resp := appendRecord(nil, rec[0], code, result)
			app.Disp.AppendProperty(xproto.ID(responder), app.atomSendRes, xproto.AtomString, resp)
			app.Disp.Flush()
		}
	case app.atomSendRes:
		rep, err := app.Disp.GetProperty(app.commWin, app.atomSendRes, true)
		if err != nil || !rep.Found {
			return
		}
		for _, rec := range readRecords(rep.Data, 3) {
			serial, err := strconv.Atoi(rec[0])
			if err != nil {
				continue
			}
			code, _ := strconv.Atoi(rec[1])
			app.sendResults[serial] = sendResult{code: code, result: rec[2]}
		}
	}
}
