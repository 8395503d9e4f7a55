package tk

import (
	"strconv"
	"testing"
	"time"
)

// TestTkwaitRunsIdleHandlers: tkwait waits in the event loop, idle
// handlers included, so a top-level packed before the wait is mapped
// while it waits, as in Tk. The toplevel command maps a new top-level
// from an idle handler, as this test does.
func TestTkwaitRunsIdleHandlers(t *testing.T) {
	app, _ := newTestApp(t)
	d, err := app.CreateTopLevel(".d", "Toplevel")
	if err != nil {
		t.Fatal(err)
	}
	app.DoWhenIdle(d.Map)
	mkWindow(t, app, ".d.b", 40, 20)
	app.MustEval(`pack append .d .d.b {top}
		after 50 {set mapped [winfo ismapped .d]; set done 1}
		tkwait variable done`)
	if got := app.MustEval(`set mapped`); got != "1" {
		t.Fatalf("winfo ismapped .d read %s while tkwait waited, want 1", got)
	}
}

// TestAfterSleepRunsTimersOnTime: during "after 100" a 1 ms timer that
// re-arms itself keeps firing about once a millisecond; the sleep
// blocks until the earliest timer, not on a coarser poll.
func TestAfterSleepRunsTimersOnTime(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`set n 0
		proc tick {} {global n id; incr n; set id [after 1 tick]}
		set id [after 1 tick]
		after 100
		after cancel $id`)
	n, err := strconv.Atoi(app.MustEval(`set n`))
	if err != nil || n < 40 {
		t.Fatalf("a re-arming 1 ms timer ran %d times during after 100, want at least 40", n)
	}
}

// TestDeleteTimerHandlerCannotEndWait: a wait's deadline has no handle,
// so cancelling every handle while "after 100" waits leaves the wait to
// run its 100 ms.
func TestDeleteTimerHandlerCannotEndWait(t *testing.T) {
	app, _ := newTestApp(t)
	app.CreateTimerHandler(10*time.Millisecond, func() {
		for id := 1; id <= app.timers.nextID; id++ {
			app.DeleteTimerHandler(id)
		}
	})
	begin := time.Now()
	app.MustEval(`after 100`)
	if d := time.Since(begin); d < 100*time.Millisecond {
		t.Fatalf("after 100 returned after %v", d)
	}
}

// TestAfterCancelEmptiesTimerHeap: a cancelled timer leaves the heap at
// once rather than when it would have fired.
func TestAfterCancelEmptiesTimerHeap(t *testing.T) {
	app, _ := newTestApp(t)
	app.MustEval(`for {set i 0} {$i < 1000} {incr i} {after cancel [after 60000 {}]}`)
	if n := app.timers.Len(); n != 0 {
		t.Fatalf("%d timers in the heap after 1000 after/after cancel pairs, want 0", n)
	}
}

// TestTkwaitVariableRemovesTrace: tkwait variable removes the trace it
// waited with, as Tk's does.
func TestTkwaitVariableRemovesTrace(t *testing.T) {
	app, _ := newTestApp(t)
	for i := 0; i < 5; i++ {
		app.MustEval(`after 1 {set x 1}; tkwait variable x`)
	}
	if got := app.MustEval(`trace vinfo x`); got != "0" {
		t.Fatalf("trace vinfo x = %s after five tkwaits, want 0", got)
	}
}

// TestTkwaitVariableEndsOnUnset: an unset ends tkwait variable, as a
// write does, as in Tk. A Go timer quits the application if the unset
// does not end the wait, so the test fails rather than hangs.
func TestTkwaitVariableEndsOnUnset(t *testing.T) {
	app, _ := newTestApp(t)
	guard := time.AfterFunc(2*time.Second, func() { app.Post(app.Quit) })
	defer guard.Stop()
	app.MustEval(`set w 0; after 10 {unset w}; after 50 {set w 1}; tkwait variable w`)
	if app.Quitting() {
		t.Fatal("tkwait variable w still waited 2 s after w was unset")
	}
	if got := app.MustEval(`info exists w`); got != "0" {
		t.Fatalf("info exists w = %s when the unset ended the wait, want 0", got)
	}
}
