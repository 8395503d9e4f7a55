//go:build !unix

package repro_test

import "time"

var processStart = time.Now()

// cpuTime stands in for the process's CPU time where getrusage is
// missing: it reads wall time since the process started.
func cpuTime() time.Duration { return time.Since(processStart) }
