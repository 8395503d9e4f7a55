package tk

import (
	"fmt"
	"strings"
)

// The option database (§3.5) is Tk's version of the Xt resource manager:
// users put patterns like "*Button.background: red" in a .Xdefaults file
// (or add them with the option command), and widgets query the database
// when they configure themselves. Patterns name a path of window names or
// classes with tight (".") or loose ("*") bindings; more specific
// patterns and higher priorities win.

// Priority levels, as in Tk.
const (
	PrioWidgetDefault = 20
	PrioStartupFile   = 40
	PrioUserDefault   = 60
	PrioInteractive   = 80
)

type optComponent struct {
	loose bool // preceded by '*' rather than '.'
	name  string
}

type optEntry struct {
	pattern  string
	comps    []optComponent
	value    string
	priority int
	serial   int
}

type optionDB struct {
	entries []*optEntry
	serial  int

	// The option stack, as in Tk's tkOption.c: the entries that can
	// match stackWin, the window looked up last. A widget's option
	// lookups at creation (7 to 21, 17 for a button) then share one walk
	// of the database. Add and Clear drop it, as do a change of the
	// application name and the destruction of stackWin (dropStack).
	stackWin *Window
	stack    []stackItem
}

// stackItem is an entry whose components before the last match the
// stack window's key path: spec holds the match quality at each window
// level, and last is the component left to match the option level.
type stackItem struct {
	e    *optEntry
	spec []int
	last string
}

func newOptionDB() *optionDB { return &optionDB{} }

// parsePattern splits "*Button.background" into components.
func parsePattern(pattern string) ([]optComponent, error) {
	var comps []optComponent
	i := 0
	loose := false
	if i < len(pattern) && (pattern[i] == '*' || pattern[i] == '.') {
		loose = pattern[i] == '*'
		i++
	}
	start := i
	for i <= len(pattern) {
		if i == len(pattern) || pattern[i] == '.' || pattern[i] == '*' {
			name := pattern[start:i]
			if name == "" {
				return nil, fmt.Errorf("bad option pattern %q", pattern)
			}
			comps = append(comps, optComponent{loose: loose, name: name})
			if i == len(pattern) {
				break
			}
			loose = pattern[i] == '*'
			i++
			start = i
			continue
		}
		i++
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("bad option pattern %q", pattern)
	}
	return comps, nil
}

// Add inserts a pattern/value with a priority.
func (db *optionDB) Add(pattern, value string, priority int) error {
	comps, err := parsePattern(pattern)
	if err != nil {
		return err
	}
	db.serial++
	db.entries = append(db.entries, &optEntry{
		pattern: pattern, comps: comps, value: value,
		priority: priority, serial: db.serial,
	})
	db.dropStack()
	return nil
}

// Clear removes all entries.
func (db *optionDB) Clear() {
	db.entries = nil
	db.serial = 0
	db.dropStack()
}

// dropStack forgets the option stack; the next lookup rebuilds it.
func (db *optionDB) dropStack() { db.stackWin, db.stack = nil, nil }

// ReadString loads .Xdefaults-format text: "pattern: value" lines, "!"
// comments.
func (db *optionDB) ReadString(text string, priority int) error {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return fmt.Errorf("missing colon in options line %q", line)
		}
		pattern := strings.TrimSpace(line[:colon])
		value := strings.TrimSpace(line[colon+1:])
		if err := db.Add(pattern, value, priority); err != nil {
			return err
		}
	}
	return nil
}

// matchLevel describes what a pattern component matched at one key level,
// for specificity comparison (name beats class beats skipped). matchSkip
// is 0, the value clear gives a skipped level in matchPrefix.
const (
	matchSkip  = 0
	matchClass = 2
	matchName  = 3
)

// quality rates how a pattern component matches one level of a key
// path, whose name and class are given: 0 when it does not match.
func quality(comp, name, class string) int {
	switch {
	case comp == name:
		return matchName
	case comp == class:
		return matchClass
	case comp == "?":
		return matchClass - 1
	}
	return 0
}

// matchPrefix reports whether comps match the window levels of a key
// path from level li on, filling spec with each level's match quality
// for the first match found: a loose component tries the nearest level
// first. When tight is set the match must end on the last window level,
// because the pattern's last component is bound tightly to the option
// level.
func matchPrefix(comps []optComponent, names, classes []string, li int, spec []int, tight bool) bool {
	if len(comps) == 0 {
		if tight && li != len(names) {
			return false
		}
		clear(spec[li:])
		return true
	}
	c := comps[0]
	for at := li; at < len(names); at++ {
		if q := quality(c.name, names[at], classes[at]); q > 0 {
			clear(spec[li:at])
			spec[at] = q
			if matchPrefix(comps[1:], names, classes, at+1, spec, tight) {
				return true
			}
		}
		if !c.loose {
			break
		}
	}
	return false
}

// buildStack makes w the stack window. Its key path is the application
// name and class, then the name and class of each window from the main
// window's child down to w (§3.5).
func (db *optionDB) buildStack(app *App, w *Window) {
	depth := 0
	for p := w; p != app.Main; p = p.Parent {
		depth++
	}
	names := make([]string, depth+1)
	classes := make([]string, depth+1)
	names[0], classes[0] = app.Name, app.Main.Class
	for p, i := w, depth; i > 0; p, i = p.Parent, i-1 {
		names[i], classes[i] = p.Name, p.Class
	}
	db.stack = db.stack[:0]
	spec := make([]int, depth+1)
	for _, e := range db.entries {
		n := len(e.comps) - 1
		if matchPrefix(e.comps[:n], names, classes, 0, spec, !e.comps[n].loose) {
			db.stack = append(db.stack, stackItem{e: e, spec: append([]int(nil), spec...), last: e.comps[n].name})
		}
	}
	db.stackWin = w
}

// GetOption looks up the option (name, class) for a window and returns
// the winning value ("" if no entry matches): the highest priority,
// then the most specific match level by level from the application
// down to the option itself, then the entry added last.
func (app *App) GetOption(w *Window, optName, optClass string) string {
	db := app.options
	if db.stackWin != w {
		db.buildStack(app, w)
	}
	var best *stackItem
	bestQ := 0
	for i := range db.stack {
		it := &db.stack[i]
		q := quality(it.last, optName, optClass)
		if q > 0 && (best == nil || it.beats(q, best, bestQ)) {
			best, bestQ = it, q
		}
	}
	if best == nil {
		return ""
	}
	return best.e.value
}

// beats reports whether it, matching the option level with quality q,
// wins over best, which matched it with bestQ.
func (it *stackItem) beats(q int, best *stackItem, bestQ int) bool {
	if it.e.priority != best.e.priority {
		return it.e.priority > best.e.priority
	}
	for i := range it.spec {
		if it.spec[i] != best.spec[i] {
			return it.spec[i] > best.spec[i]
		}
	}
	if q != bestQ {
		return q > bestQ
	}
	return it.e.serial > best.e.serial
}

// AddOption adds an entry to the application's option database.
func (app *App) AddOption(pattern, value string, priority int) error {
	return app.options.Add(pattern, value, priority)
}
