package tk

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tcl"
)

// The tkstats command exposes the observability layer (internal/obs) to
// Tcl scripts: protocol and toolkit counters and gauges, latency
// histograms, the decoded protocol trace when the application was
// started with a wire tracer (wish -trace), and the sampled request
// spans as Chrome trace-event JSON when started with a span tracer
// (wish -spans). It is how the §3.3 cache experiments read per-opcode
// traffic from inside the application being measured.

// tkstatsTable returns the rows of tkstats's subcommands.
func (app *App) tkstatsTable() []tcl.Row {
	return []tcl.Row{
		{Name: "counters", Fn: func(_ *tcl.Interp, args []string) (string, error) {
			return matchingLines(app.Metrics().Counters(), globArg(args), strconv.FormatUint), nil
		}, Max: 1, Usage: "?pattern?"},
		{Name: "gauges", Fn: func(_ *tcl.Interp, args []string) (string, error) {
			return matchingLines(app.Metrics().Gauges(), globArg(args), strconv.FormatInt), nil
		}, Max: 1, Usage: "?pattern?"},
		{Name: "histogram", Fn: app.tkstatsHistogram, Min: 1, Max: 1, Usage: "name"},
		{Name: "reset", Fn: func(*tcl.Interp, []string) (string, error) {
			app.Metrics().Reset()
			if app.Tracer != nil {
				app.Tracer.Reset()
			}
			if app.Spans != nil {
				app.Spans.Reset()
			}
			return "", nil
		}},
		{Name: "spans", Fn: app.tkstatsSpans, Max: 1, Usage: "?file?"},
		{Name: "trace", Fn: app.tkstatsTrace, Max: 1, Usage: "?n?"},
	}
}

// globArg is the glob pattern in args[2], or "*" when there is none.
func globArg(args []string) string {
	if len(args) == 3 {
		return args[2]
	}
	return "*"
}

func (app *App) tkstatsHistogram(_ *tcl.Interp, args []string) (string, error) {
	m := app.Metrics()
	h, ok := m.FindHistogram(args[2])
	if !ok {
		names := m.HistogramNames()
		return "", fmt.Errorf("no histogram %q: have %s", args[2], strings.Join(names, ", "))
	}
	s := h.Snapshot()
	// A flat key/value Tcl list (nanoseconds), easy to pick apart with
	// lindex or iterate with foreach {k v}.
	pairs := []string{
		"count", strconv.FormatUint(s.Count, 10),
		"sum", strconv.FormatInt(s.Sum, 10),
		"min", strconv.FormatInt(s.Min, 10),
		"max", strconv.FormatInt(s.Max, 10),
		"mean", strconv.FormatInt(s.Mean(), 10),
		"p50", strconv.FormatInt(s.Quantile(0.50), 10),
		"p90", strconv.FormatInt(s.Quantile(0.90), 10),
		"p99", strconv.FormatInt(s.Quantile(0.99), 10),
	}
	return strings.Join(pairs, " "), nil
}

func (app *App) tkstatsTrace(_ *tcl.Interp, args []string) (string, error) {
	if app.Tracer == nil {
		return "", fmt.Errorf("no wire tracer attached: start with wish -trace")
	}
	n := 0 // all retained lines
	if len(args) == 3 {
		v, err := strconv.Atoi(args[2])
		if err != nil || v < 0 {
			return "", fmt.Errorf("bad line count %q", args[2])
		}
		n = v
	}
	return strings.Join(app.Tracer.Dump(n), "\n"), nil
}

func (app *App) tkstatsSpans(_ *tcl.Interp, args []string) (string, error) {
	if app.Spans == nil {
		return "", fmt.Errorf("no span tracer attached: start with wish -spans")
	}
	data, err := app.Spans.ChromeJSON()
	if err != nil {
		return "", fmt.Errorf("span export failed: %v", err)
	}
	if len(args) == 3 {
		if err := os.WriteFile(args[2], data, 0o644); err != nil {
			return "", fmt.Errorf("span export failed: %v", err)
		}
		return "", nil
	}
	return string(data), nil
}

// matchingLines renders the values whose names match a glob pattern as
// sorted "name value" lines.
func matchingLines[V any](values map[string]V, pattern string, format func(V, int) string) string {
	lines := make([]string, 0, 16)
	for name, v := range values {
		if tcl.GlobMatch(pattern, name) {
			lines = append(lines, name+" "+format(v, 10))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
