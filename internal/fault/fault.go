// Package fault is a deterministic fault-injection layer for the
// simulated X protocol: a net.Conn wrapper that sits under xclient or
// xserver, below the v2 codec, and perturbs the byte stream according
// to a seeded Scenario — latency jitter, short (partial) writes, short
// reads, corrupted bytes, truncated frames, connection kills after N
// requests or bytes, and one-way read stalls.
//
// Gunther's "The X-Files" observation motivates it: real X deployments
// live and die by how the protocol behaves under latency, loss and
// stalled peers, so the layers above (xclient's read loop and cookies,
// xserver's writer, tk's send) must degrade into clean Go errors — not
// hangs or panics. The chaos harness (chaos_test.go at the repository
// root, `make chaos`) drives a real widget workload through a matrix of
// scenarios built on this package and asserts exactly that.
//
// Every injected fault increments a named counter in the wrapper's
// metrics registry (fault.jitter, fault.short_write, ...) and a running
// total, so a harness can verify the counters account for 100% of the
// injected faults. All randomness comes from two rand.Rand streams
// (one per direction) seeded from Scenario.Seed, so a scenario replays
// byte-for-byte the same decisions on every run.
package fault

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Counter names recorded in the wrapper's registry, one per fault kind.
const (
	CtrJitter       = "fault.jitter"
	CtrShortWrite   = "fault.short_write"
	CtrShortRead    = "fault.short_read"
	CtrCorruptWrite = "fault.corrupt_write"
	CtrCorruptRead  = "fault.corrupt_read"
	CtrStall        = "fault.stall"
	CtrKill         = "fault.kill"
)

// CounterNames lists every per-fault counter name; the chaos harness
// sums these and checks the sum against Total().
var CounterNames = []string{
	CtrJitter, CtrShortWrite, CtrShortRead,
	CtrCorruptWrite, CtrCorruptRead, CtrStall, CtrKill,
}

// Conn wraps a net.Conn, injecting the faults its Scenario describes.
// Reads are expected on one goroutine (the client read loop) and writes
// on another (under the client's send lock); each direction has its own
// lock and random stream, so concurrent Read/Write pairs stay
// deterministic per direction.
type Conn struct {
	net.Conn
	sc Scenario

	metrics *obs.Registry
	total   atomic.Uint64 // every injected fault, all kinds
	killed  atomic.Bool

	wmu      sync.Mutex
	wrng     *rand.Rand // guarded by wmu
	written  int64      // guarded by wmu — payload bytes delivered downstream
	frames   int64      // guarded by wmu — complete frames seen crossing the write direction
	frameRem int64      // guarded by wmu — bytes left in the frame being scanned
	hdr      []byte     // guarded by wmu — partial frame header under scan

	rmu    sync.Mutex
	rrng   *rand.Rand // guarded by rmu
	reads  int64      // guarded by rmu
	stalls int64      // guarded by rmu
}

// Wrap layers a fault-injecting connection over c. If m is nil a fresh
// registry is created; either way it is reachable via Metrics.
func Wrap(c net.Conn, sc Scenario, m *obs.Registry) *Conn {
	if m == nil {
		m = obs.NewRegistry()
	}
	return &Conn{
		Conn:    c,
		sc:      sc,
		metrics: m,
		wrng:    rand.New(rand.NewSource(sc.Seed)),
		rrng:    rand.New(rand.NewSource(sc.Seed + 1)),
	}
}

// Metrics returns the registry holding the fault.* counters.
func (c *Conn) Metrics() *obs.Registry { return c.metrics }

// Total reports how many faults have been injected so far, across all
// kinds. The per-kind counters in Metrics always sum to this value.
func (c *Conn) Total() uint64 { return c.total.Load() }

// inject records one injected fault of the named kind.
func (c *Conn) inject(name string) {
	c.metrics.Counter(name).Inc()
	c.total.Add(1)
}

// errKilled is returned for I/O after the scenario killed the
// connection.
type errKilled struct{ sc string }

func (e errKilled) Error() string {
	return fmt.Sprintf("fault: connection killed by scenario %q", e.sc)
}

// kill closes the underlying connection (both directions die, as a
// crashed peer's would).
func (c *Conn) kill() {
	if c.killed.CompareAndSwap(false, true) {
		c.inject(CtrKill)
		c.Conn.Close()
	}
}

// Killed reports whether the scenario has killed the connection.
func (c *Conn) Killed() bool { return c.killed.Load() }

// maybeJitter sleeps a random duration in [0, Jitter) with probability
// JitterProb. rng is the direction's stream; the caller holds that
// direction's lock.
func (c *Conn) maybeJitter(rng *rand.Rand) {
	if c.sc.Jitter <= 0 || !chance(rng, c.sc.JitterProb) {
		return
	}
	c.inject(CtrJitter)
	time.Sleep(time.Duration(rng.Int63n(int64(c.sc.Jitter))))
}

func chance(rng *rand.Rand, p float64) bool {
	return p > 0 && rng.Float64() < p
}

// Write delivers p downstream, possibly split, corrupted, or truncated
// by a connection kill. On success it always reports len(p) written —
// a short *wire* write is an internal matter, as it is for TCP.
func (c *Conn) Write(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, errKilled{c.sc.Name}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.maybeJitter(c.wrng)

	buf := p
	if chance(c.wrng, c.sc.CorruptWriteProb) && len(p) > 0 {
		c.inject(CtrCorruptWrite)
		buf = append([]byte(nil), p...)
		buf[c.wrng.Intn(len(buf))] ^= 1 << uint(c.wrng.Intn(8))
	}

	// Connection kill after N bytes: deliver the allowed prefix (a
	// truncated frame, most of the time) and close.
	if c.sc.KillAfterBytes > 0 && c.written+int64(len(buf)) > c.sc.KillAfterBytes {
		keep := c.sc.KillAfterBytes - c.written
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			c.Conn.Write(buf[:keep])
			c.written += keep
		}
		c.kill()
		return int(keep), errKilled{c.sc.Name}
	}

	// Count request frames crossing this direction so KillAfterRequests
	// can trigger on a request boundary.
	c.scanFrames(buf)
	if c.sc.KillAfterRequests > 0 && c.frames >= int64(c.sc.KillAfterRequests) {
		c.kill()
		return 0, errKilled{c.sc.Name}
	}

	if chance(c.wrng, c.sc.ShortWriteProb) && len(buf) > 1 {
		// Tear the buffer: two separate wire writes, so the peer sees a
		// segment boundary in the middle of a frame.
		c.inject(CtrShortWrite)
		cut := 1 + c.wrng.Intn(len(buf)-1)
		if _, err := c.Conn.Write(buf[:cut]); err != nil {
			return 0, err
		}
		c.written += int64(cut)
		n, err := c.Conn.Write(buf[cut:])
		c.written += int64(n)
		if err != nil {
			return cut + n, err
		}
		return len(p), nil
	}

	n, err := c.Conn.Write(buf)
	c.written += int64(n)
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// scanFrames advances the request-frame scanner over the outgoing
// bytes: frames are [header hdrBytes][u32 len][payload]. Called with
// c.wmu held. Framing follows xproto: client→server headers are 2
// bytes (the opcode), server→client 1 byte (the kind); headerBytes
// selects which.
func (c *Conn) scanFrames(p []byte) {
	if c.sc.KillAfterRequests <= 0 {
		return
	}
	hdrLen := int64(c.sc.headerBytes()) + 4
	for len(p) > 0 {
		if c.frameRem > 0 {
			skip := c.frameRem
			if int64(len(p)) < skip {
				skip = int64(len(p))
			}
			c.frameRem -= skip
			p = p[skip:]
			if c.frameRem == 0 {
				c.frames++
			}
			continue
		}
		c.hdr = append(c.hdr, p...)
		if int64(len(c.hdr)) < hdrLen {
			return
		}
		n := int64(c.hdr[hdrLen-4])<<24 | int64(c.hdr[hdrLen-3])<<16 |
			int64(c.hdr[hdrLen-2])<<8 | int64(c.hdr[hdrLen-1])
		p = c.hdr[hdrLen:]
		c.hdr = nil
		c.frameRem = n
		if n == 0 {
			c.frames++
		}
	}
}

// Read fills p from the underlying connection, possibly stalled,
// shortened, or corrupted.
func (c *Conn) Read(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, errKilled{c.sc.Name}
	}
	c.rmu.Lock()
	c.reads++
	stall := c.sc.StallEvery > 0 && c.sc.StallDur > 0 && c.reads%int64(c.sc.StallEvery) == 0
	short := chance(c.rrng, c.sc.ShortReadProb) && len(p) > 1
	var shortTo int
	if short {
		shortTo = 1 + c.rrng.Intn(len(p)-1)
	}
	corrupt := chance(c.rrng, c.sc.CorruptReadProb)
	var corruptAt int64
	if corrupt {
		corruptAt = c.rrng.Int63()
	}
	c.maybeJitter(c.rrng)
	c.rmu.Unlock()

	if stall {
		// A one-way stall: the reading side goes quiet while the writer
		// keeps going — the "wedged peer" shape of the X-Files paper.
		c.inject(CtrStall)
		time.Sleep(c.sc.StallDur)
	}
	if short {
		c.inject(CtrShortRead)
		p = p[:shortTo]
	}
	n, err := c.Conn.Read(p)
	if corrupt && n > 0 {
		c.inject(CtrCorruptRead)
		p[corruptAt%int64(n)] ^= 1 << uint(corruptAt%8)
	}
	return n, err
}
