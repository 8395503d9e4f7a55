package xserver

import "repro/internal/obs"

// renderMetrics is the render pipeline's slice of the server registry,
// resolved once in New so the draw hot path never does a registry
// lookup. Every draw request runs inline on the goroutine that
// dispatches it, under the server's mu. The pointers are immutable
// after New; obs counters and histograms are safe for concurrent use.
type renderMetrics struct {
	tilesDamaged  *obs.Counter   // clean→dirty tile transitions
	tilesCOW      *obs.Counter   // slab clones forced by writes to shared tiles
	tilesSnapshot *obs.Counter   // tiles aliased into copy-on-write snapshots
	fill          *obs.Histogram // rectangle and polygon fill service time
	line          *obs.Histogram // line, segment and rectangle outline service time
	copyArea      *obs.Histogram // copy service time
	text          *obs.Histogram // glyph blit service time
	screenshot    *obs.Histogram // compose + pack time (outside mu)
}

func newRenderMetrics(reg *obs.Registry) *renderMetrics {
	// render.fill.parallel counted fills fanned out to a render worker
	// pool that no longer exists; it stays registered, at 0, for the
	// benchmark's xserver.fill_parallel_per_op row.
	reg.Counter("render.fill.parallel")
	return &renderMetrics{
		tilesDamaged:  reg.Counter("render.tiles.damaged"),
		tilesCOW:      reg.Counter("render.tiles.cow"),
		tilesSnapshot: reg.Counter("render.tiles.snapshot"),
		fill:          reg.Histogram("render.fill"),
		line:          reg.Histogram("render.line"),
		copyArea:      reg.Histogram("render.copy"),
		text:          reg.Histogram("render.text"),
		screenshot:    reg.Histogram("render.screenshot"),
	}
}
