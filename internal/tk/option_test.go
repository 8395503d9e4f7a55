package tk

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refGetOption is the option lookup as it was before the option stack:
// every lookup walks the window path and matches every entry against
// the whole key path. It is the oracle GetOption is compared with.
func refGetOption(app *App, w *Window, optName, optClass string) string {
	names := []string{app.Name}
	classes := []string{app.Main.Class}
	if w.Path != "." {
		parts := strings.Split(w.Path[1:], ".")
		cur := app.Main
		for _, p := range parts {
			var child *Window
			for _, ch := range cur.Children {
				if ch.Name == p {
					child = ch
					break
				}
			}
			names = append(names, p)
			if child != nil {
				classes = append(classes, child.Class)
				cur = child
			} else {
				classes = append(classes, "")
			}
		}
	}
	names = append(names, optName)
	classes = append(classes, optClass)

	var best *optEntry
	var bestSpec []int
	for _, e := range app.options.entries {
		spec := make([]int, len(names))
		if !refMatchEntry(e.comps, names, classes, 0, spec) {
			continue
		}
		if best == nil || refBetterEntry(e, spec, best, bestSpec) {
			best, bestSpec = e, spec
		}
	}
	if best == nil {
		return ""
	}
	return best.value
}

// refMatchEntry tries to match an entry against key names/classes; on
// success it fills spec with the per-level match quality.
func refMatchEntry(comps []optComponent, names, classes []string, li int, spec []int) bool {
	if len(comps) == 0 {
		return li == len(names)
	}
	if li >= len(names) {
		return false
	}
	c := comps[0]
	tryAt := func(at int) bool {
		var quality int
		switch {
		case c.name == names[at]:
			quality = matchName
		case c.name == classes[at]:
			quality = matchClass
		case c.name == "?":
			quality = matchClass - 1
		default:
			return false
		}
		savedVals := make([]int, len(spec))
		copy(savedVals, spec)
		for i := li; i < at; i++ {
			spec[i] = matchSkip
		}
		spec[at] = quality
		if refMatchEntry(comps[1:], names, classes, at+1, spec) {
			return true
		}
		copy(spec, savedVals)
		return false
	}
	if !c.loose {
		return tryAt(li)
	}
	for at := li; at < len(names); at++ {
		if tryAt(at) {
			return true
		}
	}
	return false
}

// refBetterEntry decides whether (e, spec) beats the current best:
// priority first, then per-level specificity left-to-right, then
// insertion order.
func refBetterEntry(e *optEntry, spec []int, best *optEntry, bestSpec []int) bool {
	if e.priority != best.priority {
		return e.priority > best.priority
	}
	for i := range spec {
		if spec[i] != bestSpec[i] {
			return spec[i] > bestSpec[i]
		}
	}
	return e.serial > best.serial
}

// optionWindowKinds are the (name, class) pairs windows get in the
// option database tests. Some names equal class names, including the
// class of a different kind.
var optionWindowKinds = [][2]string{
	{"a", "Frame"}, {"b", "Button"}, {"Button", "Button"}, {"Frame", "Label"}, {"l", "Label"},
}

// TestOptionStackMatchesReference runs a seeded random mix of option
// database edits, window creation and destruction, application renames
// and lookups, and requires every lookup to agree with refGetOption.
func TestOptionStackMatchesReference(t *testing.T) {
	app, _ := newTestApp(t)
	rng := rand.New(rand.NewSource(11))
	optNames := []string{"background", "foreground", "font", "b", "Button", "relief"}
	optClasses := []string{"Background", "Foreground", "Font", "Button", "Frame", "Relief"}
	words := func() []string {
		v := []string{app.Name, app.Main.Class, "?"}
		for _, k := range optionWindowKinds {
			v = append(v, k[0], k[1])
		}
		return append(append(v, optNames...), optClasses...)
	}
	pattern := func() string {
		var b strings.Builder
		v := words()
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			if i > 0 || rng.Intn(2) == 0 {
				b.WriteByte(".*"[rng.Intn(2)])
			}
			if i == 0 && rng.Intn(3) == 0 {
				b.WriteString(v[rng.Intn(2)]) // the application's name or class
			} else {
				b.WriteString(v[rng.Intn(len(v))])
			}
		}
		return b.String()
	}
	prios := []string{"widgetDefault", "startupFile", "userDefault", "interactive", "60"}
	live := []*Window{app.Main}
	w := app.Main
	lookups, found, serial := 0, 0, 0
	lookup := func(step int) {
		name, class := optNames[rng.Intn(len(optNames))], optClasses[rng.Intn(len(optClasses))]
		got, want := app.GetOption(w, name, class), refGetOption(app, w, name, class)
		if got != want {
			t.Fatalf("step %d: GetOption(%s, %s, %s) = %q, reference %q; entries:\n%s",
				step, w.Path, name, class, got, want, dumpOptions(app))
		}
		lookups++
		if got != "" {
			found++
		}
	}
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(100); {
		case r < 25:
			serial++
			app.MustEval(fmt.Sprintf("option add %s v%d %s", pattern(), serial, prios[rng.Intn(len(prios))]))
		case r < 27:
			app.MustEval("option clear")
		case r < 31:
			var text strings.Builder
			for i := rng.Intn(3); i >= 0; i-- {
				serial++
				fmt.Fprintf(&text, "%s: r%d\n", pattern(), serial)
			}
			app.MustEval(fmt.Sprintf("option readstring {%s} %s", text.String(), prios[rng.Intn(len(prios))]))
		case r < 41:
			parent := live[rng.Intn(len(live))]
			if strings.Count(parent.Path, ".") >= 4 {
				continue
			}
			k := optionWindowKinds[rng.Intn(len(optionWindowKinds))]
			path := parent.Path + "." + k[0]
			if parent == app.Main {
				path = "." + k[0]
			}
			if app.WindowExists(path) {
				continue
			}
			nw, err := app.CreateWindow(path, k[1])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, nw)
		case r < 45:
			if len(live) > 1 {
				app.DestroyWindow(live[1+rng.Intn(len(live)-1)])
				kept := live[:0]
				for _, lw := range live {
					if !lw.Destroyed {
						kept = append(kept, lw)
					}
				}
				live = kept
			}
		case r < 47:
			// Rename between two lookups on one window, so a stack built
			// under the old name would be reused.
			if w.Destroyed {
				w = app.Main
			}
			lookup(step)
			if err := app.registerName(fmt.Sprintf("app%d", step)); err != nil {
				t.Fatal(err)
			}
			lookup(step)
		default:
			// Stay on the last window half the time, so the stack is
			// both reused and rebuilt.
			if w.Destroyed || rng.Intn(2) == 0 {
				w = live[rng.Intn(len(live))]
			}
			lookup(step)
		}
	}
	if lookups < 1500 || found < lookups/10 {
		t.Fatalf("only %d lookups, %d of them matched: the mix no longer exercises the database", lookups, found)
	}
}

func dumpOptions(app *App) string {
	var b strings.Builder
	for _, e := range app.options.entries {
		fmt.Fprintf(&b, "  %s: %s (priority %d, serial %d)\n", e.pattern, e.value, e.priority, e.serial)
	}
	return b.String()
}

// TestOptionReadstringPriority: readstring and readfile take the same
// priority argument as option add.
func TestOptionReadstringPriority(t *testing.T) {
	app, _ := newTestApp(t)
	b := mkWindow(t, app, ".b", 10, 10)
	app.MustEval(`option add *b.background red userDefault`)
	app.MustEval(`option readstring {*b.background: blue} interactive`)
	if got := app.GetOption(b, "background", "Background"); got != "blue" {
		t.Fatalf("readstring at interactive lost to userDefault: got %q, want blue", got)
	}
	app.MustEval(`option readstring {*b.background: green} 70`)
	if got := app.GetOption(b, "background", "Background"); got != "blue" {
		t.Fatalf("readstring at priority 70 beat interactive (80): got %q", got)
	}
	for _, bad := range []string{
		`option readstring {*x: y} loud`,
		`option readstring {*x: y} 101`,
		`option readstring {*x: y} interactive extra`,
		`option readfile /no/such/file interactive extra`,
	} {
		if _, err := app.Eval(bad); err == nil {
			t.Errorf("%s: want an error", bad)
		}
	}
}

// FuzzOptionDB loads arbitrary .Xdefaults text and looks one option up
// for a window and each of its ancestors: no panic, and the option
// stack agrees with the reference matcher. The path's bytes pick window
// kinds from optionWindowKinds, up to three levels deep, so the window
// tree stays small across iterations.
func FuzzOptionDB(f *testing.F) {
	for _, seed := range []struct{ text, path, name, class string }{
		{"*Button.background: red\n*b.background: blue\n", "\x01", "background", "Background"},
		{"! comment\n*Label.foreground: navy\n*font: 6x13\n", "\x04", "foreground", "Foreground"},
		{"test.a*b.font: fixed\nTest*Button.relief: raised\n", "\x00\x01", "font", "Font"},
		{"*?.Button: x\n*Button*Button: y\n.test.Button.Button: z\n", "\x02\x02", "Button", "Button"},
		{"*a*?*relief: 1\ntest*a.b.relief: 2\n*Frame.Button.relief: 3\n", "\x00\x01\x02", "relief", "Relief"},
		{"missing colon\n", "", "x", "X"},
	} {
		f.Add(seed.text, seed.path, seed.name, seed.class)
	}
	app, _ := newTestApp(f)
	f.Fuzz(func(t *testing.T, text, path, name, class string) {
		app.options.Clear()
		_ = app.options.ReadString(text, PrioStartupFile)
		w := app.Main
		for i := 0; i < len(path) && i < 3; i++ {
			k := optionWindowKinds[int(path[i])%len(optionWindowKinds)]
			p := w.Path + "." + k[0]
			if w == app.Main {
				p = "." + k[0]
			}
			child, err := app.NameToWindow(p)
			if err != nil {
				if child, err = app.CreateWindow(p, k[1]); err != nil {
					t.Fatal(err)
				}
			}
			w = child
		}
		for p := w; p != nil; p = p.Parent {
			if got, want := app.GetOption(p, name, class), refGetOption(app, p, name, class); got != want {
				t.Fatalf("GetOption(%s, %q, %q) = %q, reference %q", p.Path, name, class, got, want)
			}
		}
	})
}
