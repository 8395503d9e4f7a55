package xserver

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Render-pipeline observability and the bounded worker pool that fans
// the independent tile rows of large fills out across CPUs.
//
// The pool holds no locks: a worker only ever writes pixels of tiles
// handed to it by the caller, who holds the server's mu for the whole
// fan-out and blocks until every job finishes — so mu still guards all
// tile state, and two jobs of one fill never share a tile (they cover
// distinct tile rows).

// renderMetrics is the render pipeline's slice of the server registry,
// resolved once in New so the draw hot path never does a registry
// lookup. The pointers are immutable after New; obs counters and
// histograms are safe for concurrent use.
type renderMetrics struct {
	tilesDamaged  *obs.Counter   // clean→dirty tile transitions
	tilesCOW      *obs.Counter   // slab clones forced by writes to shared tiles
	tilesSnapshot *obs.Counter   // tiles aliased into copy-on-write snapshots
	parallelFills *obs.Counter   // fills fanned out to the worker pool
	fill          *obs.Histogram // rect-fill batch service time
	copyArea      *obs.Histogram // copy service time
	text          *obs.Histogram // glyph blit service time
	screenshot    *obs.Histogram // compose + pack time (outside mu)
}

func newRenderMetrics(reg *obs.Registry) *renderMetrics {
	return &renderMetrics{
		tilesDamaged:  reg.Counter("render.tiles.damaged"),
		tilesCOW:      reg.Counter("render.tiles.cow"),
		tilesSnapshot: reg.Counter("render.tiles.snapshot"),
		parallelFills: reg.Counter("render.fill.parallel"),
		fill:          reg.Histogram("render.fill"),
		copyArea:      reg.Histogram("render.copy"),
		text:          reg.Histogram("render.text"),
		screenshot:    reg.Histogram("render.screenshot"),
	}
}

// parallelFillMin is the clipped pixel area below which a fill is not
// worth fanning out: smaller fills run inline on the dispatching
// goroutine (a widget repaint is a few thousand pixels; a full-window
// clear is hundreds of thousands).
const parallelFillMin = 64 * 1024

// renderPool is the shared bounded worker pool. Workers are started
// lazily on the first large fill and live for the process; overflow
// jobs run inline on the submitter, so the pool can never deadlock
// even with every worker busy.
var (
	renderPoolOnce sync.Once
	renderPoolSize int
	renderJobs     chan func()
)

func startRenderPool() {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	renderPoolSize = n
	if n < 2 {
		// Single-CPU process: fanning out buys nothing, every caller
		// runs rows inline via parallelizeFills == false.
		return
	}
	renderJobs = make(chan func(), n)
	for i := 0; i < n; i++ {
		go func() {
			for job := range renderJobs {
				job()
			}
		}()
	}
}

// parallelizeFills reports whether large fills should be fanned out at
// all: with one CPU the pool is pure synchronization overhead.
func parallelizeFills() bool {
	renderPoolOnce.Do(startRenderPool)
	return renderPoolSize > 1
}

// parallelTileRows runs fn(ty) for every tile row in [ty0, ty1] across
// the render pool, blocking until all rows are done. Rows that do not
// fit in the queue run on the calling goroutine.
func parallelTileRows(ty0, ty1 int, fn func(ty int)) {
	if !parallelizeFills() {
		for ty := ty0; ty <= ty1; ty++ {
			fn(ty)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(ty1 - ty0 + 1)
	for ty := ty0; ty <= ty1; ty++ {
		ty := ty
		job := func() {
			defer wg.Done()
			fn(ty)
		}
		select {
		case renderJobs <- job:
		default:
			job()
		}
	}
	wg.Wait()
}
