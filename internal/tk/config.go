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
// Tcl value model).
type ConfigValues struct {
	specs  []OptionSpec
	values map[string]string
}

// NewConfigValues initializes storage for a spec table.
func NewConfigValues(specs []OptionSpec) *ConfigValues {
	return &ConfigValues{specs: specs, values: make(map[string]string, len(specs))}
}

// findSpec resolves a (possibly abbreviated or synonym) switch name.
func (cv *ConfigValues) findSpec(name string) (*OptionSpec, error) {
	var match *OptionSpec
	for i := range cv.specs {
		s := &cv.specs[i]
		if s.Name == name {
			match = s
			break
		}
	}
	if match == nil {
		// Unique-prefix abbreviation, as Tk allows.
		for i := range cv.specs {
			s := &cv.specs[i]
			if len(name) > 1 && len(name) < len(s.Name) && s.Name[:len(name)] == name {
				if match != nil {
					return nil, fmt.Errorf("ambiguous option %q", name)
				}
				match = s
			}
		}
	}
	if match == nil {
		return nil, fmt.Errorf("unknown option %q", name)
	}
	if match.Synonym != "" {
		return cv.findSpec(match.Synonym)
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
			cv.values[s.Name] = v
		} else {
			cv.values[s.Name] = s.Default
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
		if s.Synonym != "" {
			continue
		}
		v := cv.values[s.Name]
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
	s, err := cv.findSpec(name)
	if err != nil {
		return err
	}
	cv.values[s.Name] = value
	return nil
}

// ApplyArgs parses "-option value" pairs.
func (cv *ConfigValues) ApplyArgs(args []string) error {
	if len(args)%2 != 0 {
		return fmt.Errorf("value for %q missing", args[len(args)-1])
	}
	for i := 0; i < len(args); i += 2 {
		if err := cv.Set(args[i], args[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// Get returns an option's current value.
func (cv *ConfigValues) Get(name string) string {
	s, err := cv.findSpec(name)
	if err != nil {
		return ""
	}
	return cv.values[s.Name]
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
	var raw *OptionSpec
	for i := range cv.specs {
		if cv.specs[i].Name == name {
			raw = &cv.specs[i]
			break
		}
	}
	if raw == nil {
		s, err := cv.findSpec(name)
		if err != nil {
			return "", err
		}
		raw = s
	}
	if raw.Synonym != "" {
		return tcl.FormatList([]string{raw.Name, raw.Synonym}), nil
	}
	return tcl.FormatList([]string{raw.Name, raw.DBName, raw.DBClass, raw.Default, cv.values[raw.Name]}), nil
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
// widget can recompute and redraw.
func HandleConfigure(cv *ConfigValues, args []string, changed func() error) (string, error) {
	switch {
	case len(args) == 0:
		return cv.DescribeAll(), nil
	case len(args) == 1:
		return cv.Describe(args[0])
	default:
		if err := cv.ApplyArgs(args); err != nil {
			return "", err
		}
		if changed != nil {
			if err := changed(); err != nil {
				return "", err
			}
		}
		return "", nil
	}
}
