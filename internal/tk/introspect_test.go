package tk

import (
	"testing"

	"repro/internal/tcl"
)

// TestCommandNamesMatchRegister keeps the static Commands table in
// sync with what NewApp actually registers: every row's name must be a
// live command, and every command NewApp adds on top of the bare Tcl
// interpreter must have a row.
func TestCommandNamesMatchRegister(t *testing.T) {
	app, _ := newTestApp(t)

	advertised := map[string]bool{}
	for _, r := range Commands() {
		if advertised[r.Name] {
			t.Errorf("Commands lists %q twice", r.Name)
		}
		advertised[r.Name] = true
		if !app.Interp.HasCommand(r.Name) {
			t.Errorf("Commands lists %q but NewApp did not register it", r.Name)
		}
	}

	bare := map[string]bool{}
	for _, n := range tcl.New().CommandNames() {
		bare[n] = true
	}
	for _, n := range app.Interp.CommandNames() {
		if !bare[n] && !advertised[n] {
			t.Errorf("NewApp registers %q but Commands does not list it", n)
		}
	}
}
