package tk

import (
	"io"
	"testing"
	"time"
)

// TestFileHandler: lines from a pipe arrive as events in the loop (§3.2
// file events).
func TestFileHandler(t *testing.T) {
	app, _ := newTestApp(t)
	pr, pw := io.Pipe()
	var lines []string
	eof := false
	app.CreateFileHandler(pr, func(line string) {
		lines = append(lines, line)
	}, func() { eof = true })

	go func() {
		pw.Write([]byte("first\nsecond\n"))
		pw.Close()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !eof && time.Now().Before(deadline) {
		app.DoOneEvent(true)
	}
	if len(lines) != 2 || lines[0] != "first" || lines[1] != "second" {
		t.Fatalf("lines = %v", lines)
	}
	if !eof {
		t.Fatal("EOF handler never ran")
	}
}

// TestStressManyWidgetsNoLeak: create and destroy a large interface
// repeatedly; the window table and binding table return to baseline.
func TestStressManyWidgetsNoLeak(t *testing.T) {
	app, _ := newTestApp(t)
	baselineWindows := len(app.windows)
	for round := 0; round < 5; round++ {
		mkWindow(t, app, ".holder", 10, 10)
		for i := 0; i < 40; i++ {
			path := ".holder.w" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			w := mkWindow(t, app, path, 20, 10)
			app.MustEval(`pack append .holder ` + path + ` {top}`)
			app.MustEval(`bind ` + path + ` <Enter> {set x 1}`)
			_ = w
		}
		app.MustEval(`pack append . .holder {top}`)
		app.Update()
		app.MustEval(`destroy .holder`)
		app.Update()
		if len(app.windows) != baselineWindows {
			t.Fatalf("round %d: window table has %d entries, want %d",
				round, len(app.windows), baselineWindows)
		}
		if len(app.bindings.byObject) != 0 {
			t.Fatalf("round %d: %d binding tables leaked", round, len(app.bindings.byObject))
		}
	}
	// The server agrees: only the main window and comm window remain.
	tree, err := app.Disp.QueryTree(app.Disp.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("server has %d top-level windows, want 2", len(tree.Children))
	}
}

// TestManyTimersStress: a burst of timers all fire, in order, without
// leaking queue entries.
func TestManyTimersStress(t *testing.T) {
	app, _ := newTestApp(t)
	fired := 0
	for i := 0; i < 500; i++ {
		app.CreateTimerHandler(time.Duration(i%7)*time.Millisecond, func() { fired++ })
	}
	deadline := time.Now().Add(5 * time.Second)
	for fired < 500 && time.Now().Before(deadline) {
		app.DoOneEvent(true)
	}
	if fired != 500 {
		t.Fatalf("fired %d/500 timers", fired)
	}
	if app.timers.Len() != 0 {
		t.Fatalf("%d timers left in queue", app.timers.Len())
	}
}
