// Command xsimd runs a standalone simulated X display server on a TCP
// address. Separate operating-system processes (wish scripts, the
// examples) connect to it with -display/WISH_DISPLAY, share the screen,
// and can communicate through Tk's send — the multi-process setting of
// the paper's §6.
//
// Usage:
//
//	xsimd [-addr 127.0.0.1:6001] [-width 1024] [-height 768] [-latency-us N] [-wire v1|v2] [-fault spec] [-stats-addr addr] [-span-interval N] [-sessions N] [-quota spec] [-idle-evict dur]
//
// -latency-us charges N microseconds of simulated IPC latency per wire
// segment: each read from a client's connection, typically one flush,
// however many requests it carries (docs/pipelining.md).
//
// -wire controls whether the server accepts wire-protocol-v2 upgrades
// (docs/pipelining.md): checksummed, compressed segments of v1 frames,
// negotiated per connection. The default v2 accepts upgrades from
// clients that ask for them (wish -wire v2) and is invisible to v1
// clients; -wire v1 declines every upgrade, forcing all traffic into
// plain v1 framing.
//
// -fault wraps every accepted connection in the internal/fault chaos
// layer, injecting the faults the comma-separated key=value spec
// describes (see docs/fault-injection.md), e.g.
//
//	xsimd -fault seed=42,jitter=2ms,shortwrite=0.3
//
// -stats-addr serves the live introspection endpoints (/metrics, /spans,
// /slo, /debug/pprof/ — see docs/observability.md) on a second TCP
// address while the server runs. -span-interval samples one request in
// N per connection into the span tracer those endpoints export; clients
// started with the same interval (wish -spans) record the matching
// client-side spans.
//
// -sessions N turns the single shared display into a multi-tenant
// session farm (docs/farm.md): each client's AttachSession handshake
// (wish -session) selects an isolated virtual display, admission is
// capped at N sessions, -quota bounds what each session may allocate
// (e.g. "windows=256,pixmap-bytes=16m,gcs=128"), and -idle-evict
// retires sessions idle longer than the given duration. In farm mode
// -stats-addr serves the farm's aggregate registry: farm.* lifecycle
// metrics plus every session's traffic rolled up.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/statshttp"
	"repro/internal/obs/trace"
	"repro/internal/xserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6001", "TCP address to listen on")
	width := flag.Int("width", 1024, "screen width in pixels")
	height := flag.Int("height", 768, "screen height in pixels")
	latency := flag.Int("latency-us", 0, "simulated IPC latency per wire segment (one client flush), in microseconds")
	wireVer := flag.String("wire", "v2",
		`highest wire protocol to negotiate: "v2" accepts client upgrade requests, "v1" declines them (docs/pipelining.md)`)
	faultSpec := flag.String("fault", "",
		`fault-injection scenario applied to every connection, e.g. "seed=42,jitter=2ms,shortwrite=0.3" (docs/fault-injection.md)`)
	statsAddr := flag.String("stats-addr", "",
		"TCP address for the live introspection endpoints (/metrics, /spans, /slo, /debug/pprof/); empty disables")
	spanInterval := flag.Int("span-interval", trace.DefaultInterval,
		"sample 1 request in N into the span tracer served at -stats-addr (0 disables sampling)")
	sessions := flag.Int("sessions", 0,
		"host a multi-tenant session farm capped at N sessions (0 = one shared display; docs/farm.md)")
	quotaSpec := flag.String("quota", "",
		`per-session resource quota, e.g. "windows=256,pixmap-bytes=16m,gcs=128" (empty = unlimited; docs/farm.md)`)
	idleEvict := flag.Duration("idle-evict", 0,
		"evict farm sessions idle longer than this duration (0 disables; requires -sessions)")
	flag.Parse()

	var scenario fault.Scenario
	if *faultSpec != "" {
		var err error
		scenario, err = fault.ParseScenario(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsimd: %v\n", err)
			os.Exit(2)
		}
		// The wrapper sits on the server side of each connection: its
		// write direction carries server→client frames.
		scenario.ServerSide = true
	}
	quota, err := xserver.ParseQuota(*quotaSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsimd: %v\n", err)
		os.Exit(2)
	}
	var wireV2 bool
	switch *wireVer {
	case "v2", "2":
		wireV2 = true
	case "v1", "1":
		wireV2 = false
	default:
		fmt.Fprintf(os.Stderr, "xsimd: unknown -wire %q (want v1 or v2)\n", *wireVer)
		os.Exit(2)
	}
	if *idleEvict != 0 && *sessions <= 0 {
		fmt.Fprintf(os.Stderr, "xsimd: -idle-evict requires -sessions\n")
		os.Exit(2)
	}

	// A span tracer records the server half of sampled requests; the
	// /spans and /slo endpoints export it alongside the metrics.
	var spans *trace.Tracer
	if *statsAddr != "" {
		spans = trace.New(8192, *spanInterval)
	}

	// configure applies the per-server knobs: directly in single-display
	// mode, or to each new session's server in farm mode.
	configure := func(srv *xserver.Server) {
		if *latency > 0 {
			srv.SetLatency(time.Duration(*latency) * time.Microsecond)
		}
		srv.SetWireV2(wireV2)
		if spans != nil {
			srv.SetTracer(spans)
		}
	}

	var (
		serveConn func(net.Conn)
		stats     statshttp.Options
		shutdown  func()
	)
	if *sessions > 0 {
		farm := xserver.NewFarm(xserver.FarmOptions{
			Width: *width, Height: *height,
			MaxSessions: *sessions,
			Quota:       quota,
			IdleEvict:   *idleEvict,
			Configure:   configure,
		})
		serveConn = farm.ServeConn
		stats = statshttp.Options{Registry: farm.Metrics(), Tracer: spans}
		shutdown = farm.Close
	} else {
		srv := xserver.New(*width, *height)
		srv.SetQuota(quota)
		configure(srv)
		serveConn = srv.ServeConn
		stats = statshttp.Options{Registry: srv.Metrics(), Tracer: spans}
		shutdown = srv.Close
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsimd: %v\n", err)
		os.Exit(1)
	}
	if *sessions > 0 {
		fmt.Printf("xsimd: session farm on %s (%dx%d per session, cap %d)\n", l.Addr(), *width, *height, *sessions)
	} else {
		fmt.Printf("xsimd: simulated display server on %s (%dx%d)\n", l.Addr(), *width, *height)
	}
	if scenario.Active() {
		fmt.Printf("xsimd: injecting faults on every connection: %s\n", *faultSpec)
	}

	if *statsAddr != "" {
		_, bound, err := statshttp.Serve(*statsAddr, stats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsimd: stats endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("xsimd: introspection endpoints on http://%s/ (metrics, spans, slo, debug/pprof)\n", bound)
	}

	// Accept loop: each connection is served directly, or through the
	// fault layer when -fault is given.
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			if scenario.Active() {
				nc = fault.Wrap(nc, scenario, nil)
			}
			go serveConn(nc)
		}
	}()

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	l.Close()
	shutdown()
}
