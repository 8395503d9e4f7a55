package tk

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tcl"
)

// The configuration framework backs §4's widget option handling: each
// widget class declares a table of option specs (-background/-bg with
// database name "background", class "Background", and a default), and the
// intrinsics implement the creation-time parsing, option-database
// fallback, the "configure" introspection common to all widget commands,
// and typed accessors.

// OptionSpec declares one widget configuration option.
type OptionSpec struct {
	Name    string // command-line switch, e.g. "-background"
	DBName  string // option database name, e.g. "background"
	DBClass string // option database class, e.g. "Background"
	Default string // fallback when neither args nor database supply it
	Synonym string // when set, this spec is an alias for another switch
}

// ConfigValues holds a widget's current option settings, as strings (the
// Tcl value model): values[i] is the value of specs[i], as
// Tk_ConfigureWidget writes the fields of a widget record. A synonym's
// slot stays empty.
type ConfigValues struct {
	specs  []OptionSpec
	values []string
}

// NewConfigValues initializes storage for a spec table.
func NewConfigValues(specs []OptionSpec) *ConfigValues {
	return &ConfigValues{specs: specs, values: make([]string, len(specs))}
}

// findSpec resolves a (possibly abbreviated or synonym) switch name to
// the index of its spec.
func (cv *ConfigValues) findSpec(name string) (int, error) {
	match := -1
	for i := range cv.specs {
		if cv.specs[i].Name == name {
			match = i
			break
		}
	}
	if match < 0 {
		// Unique-prefix abbreviation, as Tk allows.
		for i := range cv.specs {
			s := &cv.specs[i]
			if len(name) > 1 && len(name) < len(s.Name) && s.Name[:len(name)] == name {
				if match >= 0 {
					return -1, fmt.Errorf("ambiguous option %q", name)
				}
				match = i
			}
		}
	}
	if match < 0 {
		return -1, fmt.Errorf("unknown option %q", name)
	}
	if syn := cv.specs[match].Synonym; syn != "" {
		return cv.findSpec(syn)
	}
	return match, nil
}

// ApplyDefaults fills every option from, in order of preference: the
// option database, then the spec default. Used at widget creation (§4:
// "For unspecified options, the widget checks in the option database for
// a value; if none is found then it uses a default").
func (cv *ConfigValues) ApplyDefaults(app *App, w *Window) {
	for i := range cv.specs {
		s := &cv.specs[i]
		if s.Synonym != "" {
			continue
		}
		if v := app.GetOption(w, s.DBName, s.DBClass); v != "" {
			cv.values[i] = v
		} else {
			cv.values[i] = s.Default
		}
	}
}

// ResourceNames scans the current values by option-database class and
// returns the textual color, font and cursor resources the widget will
// resolve — the input App.PrefetchResources pipelines into one flight
// before the widget's recompute path looks each one up in the caches.
func (cv *ConfigValues) ResourceNames() (colors, fonts, cursors []string) {
	for i := range cv.specs {
		s := &cv.specs[i]
		v := cv.values[i]
		if v == "" {
			continue
		}
		switch s.DBClass {
		case "Background", "Foreground":
			colors = append(colors, v)
		case "Font":
			fonts = append(fonts, v)
		case "Cursor":
			cursors = append(cursors, v)
		}
	}
	return colors, fonts, cursors
}

// Set assigns one option by (possibly abbreviated) switch name.
func (cv *ConfigValues) Set(name, value string) error {
	i, err := cv.findSpec(name)
	if err != nil {
		return err
	}
	cv.values[i] = value
	return nil
}

// A setting is an option's value before a call assigned it.
type setting struct {
	i     int
	value string
}

// ApplyArgs parses "-option value" pairs. A call that fails sets none.
func (cv *ConfigValues) ApplyArgs(args []string) error {
	var buf [4]setting
	_, err := cv.apply(args, buf[:0])
	return err
}

// apply assigns "-option value" pairs and returns old with the value
// each assignment replaced appended. On an error it puts those values
// back and returns the error.
func (cv *ConfigValues) apply(args []string, old []setting) ([]setting, error) {
	if len(args)%2 != 0 {
		return old, fmt.Errorf("value for %q missing", args[len(args)-1])
	}
	for k := 0; k < len(args); k += 2 {
		i, err := cv.findSpec(args[k])
		if err != nil {
			cv.restore(old)
			return old, err
		}
		old = append(old, setting{i, cv.values[i]})
		cv.values[i] = args[k+1]
	}
	return old, nil
}

// restore puts back the values old records, the latest first, so an
// option assigned twice gets the value it had before either.
func (cv *ConfigValues) restore(old []setting) {
	for k := len(old) - 1; k >= 0; k-- {
		cv.values[old[k].i] = old[k].value
	}
}

// Get returns an option's current value.
func (cv *ConfigValues) Get(name string) string {
	i, err := cv.findSpec(name)
	if err != nil {
		return ""
	}
	return cv.values[i]
}

// GetInt parses an option as an integer (with a fallback).
func (cv *ConfigValues) GetInt(name string, fallback int) int {
	v := cv.Get(name)
	if n, err := strconv.Atoi(v); err == nil {
		return n
	}
	return fallback
}

// GetBool parses an option as a boolean.
func (cv *ConfigValues) GetBool(name string) bool {
	switch cv.Get(name) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// Describe returns the "configure" introspection for one option:
// {switch dbName dbClass default current} (or {switch synonym} for
// synonyms), exactly the tuple Tk reports.
func (cv *ConfigValues) Describe(name string) (string, error) {
	i := -1
	for k := range cv.specs {
		if cv.specs[k].Name == name {
			i = k
			break
		}
	}
	if i < 0 {
		var err error
		if i, err = cv.findSpec(name); err != nil {
			return "", err
		}
	}
	s := &cv.specs[i]
	if s.Synonym != "" {
		return tcl.FormatList([]string{s.Name, s.Synonym}), nil
	}
	return tcl.FormatList([]string{s.Name, s.DBName, s.DBClass, s.Default, cv.values[i]}), nil
}

// DescribeAll returns the full configure listing.
func (cv *ConfigValues) DescribeAll() string {
	var out []string
	for i := range cv.specs {
		d, err := cv.Describe(cv.specs[i].Name)
		if err == nil {
			out = append(out, d)
		}
	}
	return tcl.FormatList(out)
}

// ParsePair parses s as two integers separated by sep, such as a
// geometry's "WxH" with sep "x", and reports whether s is exactly that.
func ParsePair(s, sep string) (a, b int, ok bool) {
	as, bs, found := strings.Cut(s, sep)
	a, errA := strconv.Atoi(as)
	b, errB := strconv.Atoi(bs)
	return a, b, found && errA == nil && errB == nil
}

// HandleConfigure implements the shared "<widget> configure ..." protocol
// for widget commands: no extra args lists everything, one arg describes
// an option, pairs assign. changed is called after assignments so the
// widget can recompute and redraw. A call that fails leaves the widget
// as it was, as Tk's configure does: the values it set are put back and
// changed runs again on them.
func HandleConfigure(cv *ConfigValues, args []string, changed func() error) (string, error) {
	switch {
	case len(args) == 0:
		return cv.DescribeAll(), nil
	case len(args) == 1:
		return cv.Describe(args[0])
	}
	// The array holds the old values of a call of up to four options
	// on the stack.
	var buf [4]setting
	old, err := cv.apply(args, buf[:0])
	if err == nil && changed != nil {
		if err = changed(); err != nil {
			cv.restore(old)
			// The restored values were in force before the call, so
			// this only rebuilds what the failed recompute changed;
			// the caller gets the first error.
			_ = changed()
		}
	}
	return "", err
}
