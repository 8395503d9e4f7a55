package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Host speed and steal. The benchmark's host is shared with other
// tenants, and while they run, the same code takes up to twice as long,
// mostly because each instruction gets slower. Such stretches last from
// a tenth of a second to minutes, so no choice of run length or
// percentile removes them. Instead, the benchmark times a fixed
// reference kernel next to the operations, at most a tenth of a second
// apart, and reports times at the speed the host has when the reference
// kernel takes refNominal:
//
//   - CPU time is multiplied by the speed, s = refNominal / reference
//     time;
//   - wall time is multiplied by 1 - f + f*s, where f is the interval's
//     CPU share (process CPU time over wall time, at most 1). Waiting
//     (the remote workload's simulated link latency) does not slow down
//     with the host; computing does.
//
// The kernel is Go code of this file alone. No change to the program
// under test can move it, so a change that makes an operation slower or
// faster moves the reported numbers by the same share.
//
// The host also takes this machine's CPUs away outright, or wakes them
// late from idle, for milliseconds at a time: it steals CPU time. Each
// theft lands on a few operations, so a few seconds of it in a run can
// double a 99th percentile, most of all on the remote workload, which
// idles between simulated link delays. Steal is not a matter of speed
// and cannot be scaled away; instead the timing metrics come only from
// windows in which the host stole nothing (windows.timed).

// refNominal is refKernel's time on an idle 2-vCPU Intel Xeon host.
const refNominal = 300 * time.Microsecond

// refInterp is a toy command interpreter, the kernel's stand-in for Tcl
// and toolkit work: splitting strings, map lookups, calls through
// function values and small allocations.
type refInterp struct {
	vars map[string]string
	cmds map[string]func(args []string) string
}

func newRefInterp() *refInterp {
	in := &refInterp{vars: make(map[string]string)}
	in.cmds = map[string]func([]string) string{
		"set": func(a []string) string {
			in.vars[a[1]] = a[2]
			return a[2]
		},
		"incr": func(a []string) string {
			n, _ := strconv.Atoi(in.vars[a[1]])
			in.vars[a[1]] = strconv.Itoa(n + 1)
			return in.vars[a[1]]
		},
		"append": func(a []string) string {
			s := in.vars[a[1]] + strings.Join(a[2:], "")
			in.vars[a[1]] = s[max(0, len(s)-64):]
			return in.vars[a[1]]
		},
	}
	return in
}

func (in *refInterp) eval(script string) string {
	var result string
	for _, line := range strings.Split(script, "\n") {
		words := strings.Fields(line)
		if len(words) == 0 {
			continue
		}
		for i, w := range words {
			if strings.HasPrefix(w, "$") {
				words[i] = in.vars[w[1:]]
			}
		}
		result = in.cmds[words[0]](words)
	}
	return result
}

// refPixels is the kernel's stand-in for a frame buffer. As an array it
// lives outside the heap, so heap_mb does not count it.
var refPixels [256 * 256]uint32

// refKernel runs the reference kernel once and returns its duration:
// interpreter-like work, then tile fills and row copies like the
// renderer's.
func refKernel(in *refInterp) time.Duration {
	start := time.Now()
	n := 0
	for i := 0; i < 400; i++ {
		n += len(in.eval("set a 1\nincr a\nappend s $a x\nset c $a"))
	}
	for k := 0; k < 12; k++ {
		x, y := k*16%192, k*8%192
		for row := y; row < y+64; row++ {
			tile := refPixels[row*256+x : row*256+x+64]
			for i := range tile {
				tile[i] = uint32(n + k)
			}
		}
		copy(refPixels[:64*256], refPixels[128*256:])
	}
	return time.Since(start)
}

// speed is the host's speed relative to the nominal one, from one
// reference kernel time.
func speed(ref time.Duration) float64 { return float64(refNominal) / float64(ref) }

// wallScale is the factor for a wall-clock interval in which the process
// used cpu of CPU time and the host ran at speed s.
func wallScale(wall, cpu time.Duration, s float64) float64 {
	f := min(1, float64(cpu)/float64(wall))
	return 1 - f + f*s
}

// stealTicks is the CPU time, in clock ticks, that the host has stolen
// from all of this machine's CPUs since boot (the steal column of
// /proc/stat). Where the system does not report it, it is 0, and no
// window counts as disturbed.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
