// Package statshttp is the live introspection surface: an HTTP handler
// that exposes a metrics registry in Prometheus text-exposition format,
// the span tracer's retained ring as Chrome trace-event JSON, the SLO
// rollup (internal/obs/slo) as JSON, and the standard net/http/pprof
// profiles — so a long-running server (xsimd -stats-addr) can be
// inspected while it serves, without stopping it or linking a client.
package statshttp

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/trace"
)

// Options configures the handler. Registry is required; a nil Tracer
// just leaves /spans empty and the SLO report span-less.
type Options struct {
	// Registry is exposed at /metrics and feeds the /slo report. For a
	// server process this is the server registry (so the report's
	// dispatch and lockwait sections fill in).
	Registry *obs.Registry
	// Tracer, when non-nil, backs /spans and the report's span rollup.
	Tracer *trace.Tracer
}

// NewMux returns a mux serving the introspection endpoints:
//
//	/metrics        registry snapshot, Prometheus text exposition
//	/spans          retained spans, Chrome trace-event JSON
//	/slo            SLO rollup, JSON (see internal/obs/slo)
//	/debug/pprof/   the standard Go profiles
func NewMux(opts Options) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(Exposition(opts.Registry)))
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		var spans []trace.Span
		if opts.Tracer != nil {
			spans = opts.Tracer.Spans()
		}
		data, err := trace.ChromeJSON(spans)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		opts.Registry.Counter("slo.reports").Inc()
		src := slo.Sources{Server: opts.Registry}
		if opts.Tracer != nil {
			src.Spans = opts.Tracer.Spans()
		}
		data, err := slo.MarshalReport(slo.Build(src))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr and serves the introspection endpoints until
// the returned server is shut down. It returns the bound address (so
// addr may use port 0) and the server handle.
func Serve(addr string, opts Options) (*http.Server, net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: NewMux(opts)}
	go srv.Serve(l)
	return srv, l.Addr(), nil
}

// Exposition renders a registry snapshot in the Prometheus text
// exposition format. Metric names are sanitized (dots become
// underscores); histograms expose _count, _sum (in seconds) and
// quantile-labelled samples, like a Prometheus summary.
func Exposition(reg *obs.Registry) string {
	var b strings.Builder
	counters := reg.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := sanitize(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, counters[name])
	}
	gauges := reg.Gauges()
	names = names[:0]
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := sanitize(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, gauges[name])
	}
	hists := reg.Histograms()
	names = names[:0]
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := sanitize(name)
		s := hists[name]
		fmt.Fprintf(&b, "# TYPE %s summary\n", n)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(&b, "%s{quantile=%q} %g\n", n, fmt.Sprintf("%g", q), float64(s.Quantile(q))/1e9)
		}
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", n, float64(s.Sum)/1e9, n, s.Count)
	}
	return b.String()
}

// sanitize maps a registry metric name onto the Prometheus name
// grammar: dots (and any other non-alphanumerics) become underscores.
func sanitize(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
