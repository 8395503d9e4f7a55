package tk

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/xproto"
)

// TestUnmappedSubtreeCostsNoRequest: a subtree that is built, given
// geometry, bindings and a background, and destroyed without ever being
// mapped never reaches the server.
func TestUnmappedSubtreeCostsNoRequest(t *testing.T) {
	app, _ := newTestApp(t)
	ops := []string{"CreateWindow", "DestroyWindow", "ConfigureWindow", "ChangeWindowAttributes"}
	counts := func() []uint64 {
		out := make([]uint64, len(ops))
		for i, op := range ops {
			out[i] = app.Metrics().Counter("requests." + op).Value()
		}
		return out
	}
	before := counts()
	f := mkWindow(t, app, ".f", 100, 100)
	f.SetBackground(0x123456)
	for _, path := range []string{".f.a", ".f.b"} {
		w := mkWindow(t, app, path, 20, 10)
		app.resizeWindow(w, 5, 5, 20, 10, true)
	}
	app.MustEval(`bind .f.a <Enter> {set entered 1}`)
	if _, err := app.CreateTopLevel(".f.top", "Toplevel"); err != nil {
		t.Fatal(err)
	}
	app.Update()
	app.MustEval("destroy .f")
	app.Update()
	after := counts()
	for i, op := range ops {
		if n := after[i] - before[i]; n != 0 {
			t.Errorf("an unmapped subtree sent %d %s requests, want 0", n, op)
		}
	}
}

// TestWinfoIdMakesWindowExist: asking for a window's ID creates it and
// its ancestors on the server.
func TestWinfoIdMakesWindowExist(t *testing.T) {
	app, _ := newTestApp(t)
	a := mkWindow(t, app, ".a", 40, 40)
	b := mkWindow(t, app, ".a.b", 20, 20)
	if got, want := app.MustEval("winfo id .a.b"), strconv.FormatUint(uint64(b.XID), 10); got != want {
		t.Fatalf("winfo id .a.b = %s, want %s", got, want)
	}
	d := app.Disp
	for _, c := range []struct{ parent, child xproto.ID }{{app.Main.XID, a.XID}, {a.XID, b.XID}} {
		tree, err := d.QueryTree(c.parent)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(tree.Children, c.child) {
			t.Errorf("QueryTree(%d) = %v, want it to list %d", c.parent, tree.Children, c.child)
		}
	}
}

// TestConfigureBindingAtFirstMap: a window packed before it exists gets
// its size in CreateWindow, not from the server, yet a <Configure>
// binding still runs once, with the packed size, as the window appears.
func TestConfigureBindingAtFirstMap(t *testing.T) {
	app, _ := newTestApp(t)
	mkWindow(t, app, ".x", 70, 30)
	app.MustEval(`set configured {}`)
	app.MustEval(`bind .x <Configure> {lappend configured %wx%h}`)
	app.MustEval(`pack append . .x {top}`)
	app.Update()
	if got := app.MustEval(`set configured`); got != "70x30" {
		t.Errorf("<Configure> ran with %q, want once with 70x30", got)
	}
}

// TestLazyWindowsStackInCreationOrder: windows reach the server in the
// order they are mapped, yet siblings stack in creation order, as X
// stacks windows created when Tk creates them. A raise stacks a window
// above every sibling, including one that did not exist yet.
func TestLazyWindowsStackInCreationOrder(t *testing.T) {
	app, _ := newTestApp(t)
	var ids []xproto.ID
	for _, path := range []string{".b1", ".b2", ".b3", ".b4"} {
		ids = append(ids, mkWindow(t, app, path, 30, 20).XID)
	}
	b1, b2, b3, b4 := ids[0], ids[1], ids[2], ids[3]
	stacking := func(want ...xproto.ID) {
		t.Helper()
		app.Update()
		tree, err := app.Disp.QueryTree(app.Main.XID)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tree.Children, want) {
			t.Errorf("QueryTree(.) = %v, want %v", tree.Children, want)
		}
	}
	app.MustEval(`pack append . .b3 {top} .b1 {top} .b2 {top}`)
	stacking(b1, b2, b3)
	app.MustEval(`raise .b1`)
	app.MustEval(`pack append . .b4 {top}`)
	stacking(b2, b3, b4, b1)
}

// TestDestroyHandsBackXIDs: destroying a subtree hands every window's
// XID back to the display, those of the windows that die with their
// parent's X window and of the window that never existed included, so
// a long-lived application reuses them once it has counted through its
// range of IDs, and the server accepts them.
func TestDestroyHandsBackXIDs(t *testing.T) {
	app, _ := newTestApp(t)
	for app.Disp.NewID()&(xproto.IDRange-1) < xproto.IDRange-100 { // count out all but the range's last 100 IDs
	}
	f := mkWindow(t, app, ".f", 20, 20)
	b := mkWindow(t, app, ".f.b", 10, 10)
	n := mkWindow(t, app, ".f.n", 10, 10)
	b.MakeExist()
	want := map[xproto.ID]bool{f.XID: true, b.XID: true, n.XID: true}
	app.DestroyWindow(f)
	got := map[xproto.ID]bool{}
	for range 100 {
		if id := app.Disp.NewID(); want[id] {
			got[id] = true
			app.Disp.Request(&xproto.CreateWindowReq{Wid: id, Parent: app.Disp.Root, Width: 1, Height: 1})
		}
	}
	if len(got) != len(want) || len(app.dying) != 0 {
		t.Fatalf("NewID reused %v of the destroyed windows' XIDs %v; %d XIDs left waiting", got, want, len(app.dying))
	}
}
