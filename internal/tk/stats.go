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

func (app *App) cmdTkstats(in *tcl.Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf(`wrong # args: should be "tkstats counters|gauges|histogram|trace|spans|reset ?arg?"`)
	}
	m := app.Metrics()
	switch args[1] {
	case "counters", "gauges":
		if len(args) > 3 {
			return "", fmt.Errorf(`wrong # args: should be "tkstats %s ?pattern?"`, args[1])
		}
		pattern := "*"
		if len(args) == 3 {
			pattern = args[2]
		}
		if args[1] == "counters" {
			return matchingLines(m.Counters(), pattern, strconv.FormatUint), nil
		}
		return matchingLines(m.Gauges(), pattern, strconv.FormatInt), nil
	case "histogram":
		if len(args) != 3 {
			return "", fmt.Errorf(`wrong # args: should be "tkstats histogram name"`)
		}
		h, ok := m.FindHistogram(args[2])
		if !ok {
			names := m.HistogramNames()
			return "", fmt.Errorf("no histogram %q: have %s", args[2], strings.Join(names, ", "))
		}
		s := h.Snapshot()
		// A flat key/value Tcl list (nanoseconds), easy to pick apart
		// with lindex or iterate with foreach {k v}.
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
	case "trace":
		if len(args) > 3 {
			return "", fmt.Errorf(`wrong # args: should be "tkstats trace ?n?"`)
		}
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
	case "spans":
		if len(args) > 3 {
			return "", fmt.Errorf(`wrong # args: should be "tkstats spans ?file?"`)
		}
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
	case "reset":
		if len(args) != 2 {
			return "", fmt.Errorf(`wrong # args: should be "tkstats reset"`)
		}
		m.Reset()
		if app.Tracer != nil {
			app.Tracer.Reset()
		}
		if app.Spans != nil {
			app.Spans.Reset()
		}
		return "", nil
	}
	return "", fmt.Errorf("bad option %q: should be counters, gauges, histogram, trace, spans, or reset", args[1])
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
