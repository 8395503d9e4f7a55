package main

import (
	"sort"
	"strings"

	"repro/internal/obs/trace"
)

// The ledger splits each traced operation's wall time among the layers
// along the client's critical path. Every instant of the bench.op span
// goes to exactly one row, chosen from the spans active at that instant.
// The client is blocked inside a client.wait, inside a client.flush (a
// pipe write returns only once the server has read it), and inside a
// bench.send except during its own tk.event. Then, in order:
//
//   - blocked while a server.dispatch of any connection runs: xserver,
//     split by the dispatch span's lock-wait args into lockwait;
//   - in a client.flush: xclient;
//   - blocked while a peer application's tk.event runs: tk_event;
//   - blocked otherwise: wire (transit, simulated latency, wake-ups);
//   - in the client's own tk.event: tk_event;
//   - in a bench.<call>: tcl_tk (Tcl evaluation, widget code, idle
//     redraws and request encoding);
//   - otherwise: bench, the benchmark's own code.
//
// server.dispatch time outside the first case ran concurrently with the
// client and is reported as xserver.offpath.
const (
	rowBench = iota
	rowTclTk
	rowTkEvent
	rowXclient
	rowWire
	rowXserver
	rowLockwait
	numRows
)

var rowNames = [numRows]string{
	"self.bench_us_per_op", "self.tcl_tk_us_per_op", "self.tk_event_us_per_op", "self.xclient_us_per_op",
	"self.wire_us_per_op", "self.xserver_us_per_op", "self.lockwait_us_per_op",
}

// Span categories the sweep tracks.
const (
	catCall = iota
	catSend
	catEvent
	catWait
	catFlush
	catServer
	catPeer
	numCats
)

type ledger struct {
	ops     int
	ns      [numRows]float64
	offpath float64
}

type edge struct {
	t     int64
	cat   int
	delta int
	frac  float64 // lock-wait share of a server.dispatch span
}

func category(s trace.Span) int {
	switch s.Name {
	case "bench.op":
		return -1
	case "bench.send":
		return catSend
	case "tk.event":
		return catEvent
	case "client.wait":
		return catWait
	case "client.flush":
		return catFlush
	case "server.dispatch":
		return catServer
	}
	if strings.HasPrefix(s.Name, "bench.") {
		return catCall
	}
	return -1
}

// lockFrac is the share of a dispatch span spent waiting for locks.
func lockFrac(s trace.Span) float64 {
	if s.Dur <= 0 {
		return 0
	}
	var wait int64
	for _, a := range s.Args {
		if strings.HasPrefix(a.Key, "lockwait.") {
			wait += a.Val
		}
	}
	return min(1, float64(wait)/float64(s.Dur))
}

// add accounts one operation spanning [start, end) in Unix ns, given the
// spans its tracers recorded: own from the shared client and server
// tracer, peer from a second application's event loop.
func (l *ledger) add(start, end int64, own, peer []trace.Span) {
	var edges []edge
	addSpan := func(s trace.Span, cat int) {
		a, b := max(s.Start, start), min(s.End(), end)
		if cat < 0 || a >= b {
			return
		}
		var frac float64
		if cat == catServer {
			frac = lockFrac(s)
		}
		edges = append(edges, edge{a, cat, 1, frac}, edge{b, cat, -1, frac})
	}
	for _, s := range own {
		addSpan(s, category(s))
	}
	for _, s := range peer {
		if s.Name == "tk.event" {
			addSpan(s, catPeer)
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })

	var active [numCats]int
	var fracSum float64
	prev := start
	for i := 0; i < len(edges); {
		t := edges[i].t
		l.attribute(float64(t-prev), &active, fracSum)
		for ; i < len(edges) && edges[i].t == t; i++ {
			e := edges[i]
			active[e.cat] += e.delta
			if e.cat == catServer {
				fracSum += float64(e.delta) * e.frac
				if active[catServer] == 0 {
					fracSum = 0
				}
			}
		}
		prev = t
	}
	l.attribute(float64(end-prev), &active, fracSum)
	l.ops++
}

func (l *ledger) attribute(d float64, a *[numCats]int, fracSum float64) {
	if d <= 0 {
		return
	}
	blocked := a[catWait] > 0 || a[catFlush] > 0 || (a[catSend] > 0 && a[catEvent] == 0)
	serving := a[catServer] > 0
	switch {
	case blocked && serving:
		lw := d * min(1, fracSum/float64(a[catServer]))
		l.ns[rowLockwait] += lw
		l.ns[rowXserver] += d - lw
		return
	case a[catFlush] > 0:
		l.ns[rowXclient] += d
	case blocked && a[catPeer] > 0:
		l.ns[rowTkEvent] += d
	case blocked:
		l.ns[rowWire] += d
	case a[catEvent] > 0:
		l.ns[rowTkEvent] += d
	case a[catCall] > 0 || a[catSend] > 0:
		l.ns[rowTclTk] += d
	default:
		l.ns[rowBench] += d
	}
	if serving {
		l.offpath += d
	}
}

// metrics returns the ledger rows in µs per operation.
func (l *ledger) metrics() map[string]float64 {
	m := make(map[string]float64, numRows+1)
	for r, ns := range l.ns {
		m[rowNames[r]] = ratio(ns, float64(l.ops)) / 1e3
	}
	m["xserver.offpath_us_per_op"] = ratio(l.offpath, float64(l.ops)) / 1e3
	return m
}
