package widget_test

import (
	"testing"

	"repro/internal/widget"
)

// TestCommandNamesMatchRegister keeps the static tables in sync with
// Register: every widget-creation command Commands lists has a row in
// Instances and is a live command in a full application, and Instances
// lists no other class.
func TestCommandNamesMatchRegister(t *testing.T) {
	app, _ := newApp(t)

	instances := widget.Instances()
	rows := widget.Commands()
	if len(instances) != len(rows) {
		t.Errorf("Instances lists %d classes, Commands %d", len(instances), len(rows))
	}
	for i, r := range rows {
		if i > 0 && rows[i-1].Name >= r.Name {
			t.Errorf("Commands is not sorted: %q before %q", rows[i-1].Name, r.Name)
		}
		if instances[r.Name].Subs == nil {
			t.Errorf("Instances has no rows for %q", r.Name)
		}
		if !app.Interp.HasCommand(r.Name) {
			t.Errorf("Commands lists %q but Register did not install it", r.Name)
		}
	}
}
