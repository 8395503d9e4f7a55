package xserver

import (
	"fmt"
	"testing"
	"time"
)

// TestLatencyDebt checks that the link charges what it states: 100 ms
// worth of segments at d take 100 ms within 10%, for charges below the
// shortest sleep the host keeps as well as above it. The last sleep's
// overrun, and the debt still under sleepMin when the charges end, are
// never settled; 100 ms leaves them, and a scheduler delay of a few
// milliseconds, inside the bound.
func TestLatencyDebt(t *testing.T) {
	const total = 100 * time.Millisecond
	for _, d := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond} {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			n := int(total / d)
			var sr segmentReader
			start := time.Now()
			for range n {
				sr.charge(d)
			}
			if got := time.Since(start); got < total*9/10 || got > total*11/10 {
				t.Fatalf("%d charges of %v took %v, want %v within 10%%", n, d, got, total)
			}
		})
	}
}
