package tk

import (
	"fmt"
	"strings"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

// Resource caches (§3.3): allocating X resources requires inter-process
// communication with the server, so Tk caches them, indexed by textual
// descriptions. The first request for "MediumSeaGreen" costs a round
// trip; every later request is served from the cache. Given a resource
// value, Tk can also return its textual name (NameOfColor), which widgets
// use to report their configuration in human-readable form.

// Color resolves a textual color name to a pixel, caching the result.
func (app *App) Color(name string) (uint32, error) {
	key := strings.ToLower(name)
	if px, ok := app.colorCache[key]; ok {
		app.colorStats.hits.Inc()
		return px, nil
	}
	app.colorStats.misses.Inc()
	px, found, err := app.Disp.AllocNamedColor(name)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("unknown color name %q", name)
	}
	app.storeColor(key, px)
	return px, nil
}

// storeColor records an allocated pixel under its canonical (lowercase)
// name in both directions. The reverse map uses the same canonical key
// as colorCache, so NameOfColor always agrees with the cache — callers
// may ask with any casing.
func (app *App) storeColor(key string, px uint32) {
	app.colorCache[key] = px
	if _, ok := app.colorNames[px]; !ok {
		app.colorNames[px] = key
	}
}

// NameOfColor returns the canonical textual name under which a pixel
// was allocated (falling back to #RRGGBB).
func (app *App) NameOfColor(pixel uint32) string {
	if name, ok := app.colorNames[pixel]; ok {
		return name
	}
	return fmt.Sprintf("#%06x", pixel)
}

// FontByName opens a font by name, caching the handle and its metrics so
// later uses (and all text measurement) cost no server traffic.
func (app *App) FontByName(name string) (*xclient.Font, error) {
	if f, ok := app.fontCache[name]; ok {
		app.fontStats.hits.Inc()
		return f, nil
	}
	app.fontStats.misses.Inc()
	f, err := app.Disp.OpenFont(name)
	if err != nil {
		return nil, fmt.Errorf("unknown font name %q: %v", name, err)
	}
	app.fontCache[name] = f
	return f, nil
}

// Cursor resolves a textual cursor name (e.g. "coffee_mug") to a cursor
// resource, caching it.
func (app *App) Cursor(name string) (xproto.ID, error) {
	if c, ok := app.cursorCache[name]; ok {
		app.cursorStats.hits.Inc()
		return c, nil
	}
	app.cursorStats.misses.Inc()
	c := app.Disp.CreateCursor(name)
	app.cursorCache[name] = c
	return c, nil
}

// Bitmap is a cached monochrome pattern, indexed by a textual name
// ("gray50", or "@file" for a bitmap stored in a file, per §3.3).
type Bitmap struct {
	Name   string
	Width  int
	Height int
	// Rows holds one bool per pixel, row-major.
	Rows []bool
}

// builtinBitmaps defines the stock patterns.
var builtinBitmaps = map[string]func() *Bitmap{
	"gray50": func() *Bitmap {
		b := &Bitmap{Name: "gray50", Width: 8, Height: 8, Rows: make([]bool, 64)}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				b.Rows[y*8+x] = (x+y)%2 == 0
			}
		}
		return b
	},
	"gray25": func() *Bitmap {
		b := &Bitmap{Name: "gray25", Width: 8, Height: 8, Rows: make([]bool, 64)}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				b.Rows[y*8+x] = x%2 == 0 && y%2 == 0
			}
		}
		return b
	},
	"star": func() *Bitmap {
		rows := []string{
			"...X...",
			"...X...",
			".XXXXX.",
			"..XXX..",
			".X.X.X.",
			"X..X..X",
			"...X...",
		}
		return bitmapFromRows("star", rows)
	},
}

func bitmapFromRows(name string, rows []string) *Bitmap {
	h := len(rows)
	w := len(rows[0])
	b := &Bitmap{Name: name, Width: w, Height: h, Rows: make([]bool, w*h)}
	for y, r := range rows {
		for x := 0; x < len(r) && x < w; x++ {
			b.Rows[y*w+x] = r[x] == 'X'
		}
	}
	return b
}

// BitmapByName resolves a textual bitmap description, caching it.
func (app *App) BitmapByName(name string) (*Bitmap, error) {
	if b, ok := app.bitmapCache[name]; ok {
		app.bitmapStats.hits.Inc()
		return b, nil
	}
	app.bitmapStats.misses.Inc()
	if mk, ok := builtinBitmaps[name]; ok {
		b := mk()
		app.bitmapCache[name] = b
		return b, nil
	}
	return nil, fmt.Errorf("bitmap %q not defined", name)
}

// GC returns a shared graphics context for the given attributes, creating
// it on first use. GCs with identical contents are shared between
// widgets, as §3.3 prescribes.
func (app *App) GC(fg, bg uint32, lineWidth int, font xproto.ID) xproto.ID {
	key := gcKey{fg: fg, bg: bg, lineWidth: lineWidth, font: font}
	if gc, ok := app.gcCache[key]; ok {
		app.gcStats.hits.Inc()
		return gc
	}
	app.gcStats.misses.Inc()
	gc := app.Disp.CreateGC(xclient.GCValues{
		Mask: xproto.GCForeground | xproto.GCBackground |
			xproto.GCLineWidth | xproto.GCFont,
		Foreground: fg, Background: bg,
		LineWidth: lineWidth, Font: font,
	})
	app.gcCache[key] = gc
	return gc
}

// CacheStats reports cache occupancy, for the §3.3 experiments.
func (app *App) CacheStats() (colors, fonts, gcs, cursors int) {
	return len(app.colorCache), len(app.fontCache), len(app.gcCache), len(app.cursorCache)
}

// PrefetchResources issues every cache-missing allocation among the
// given color, font and cursor names as one pipelined batch and waits
// for all replies in a single flight. It is the §3.3 resource caches
// meeting the XCB cookie model: a widget whose configuration needs two
// new colors and a new font pays one round trip, not three. Names
// already cached cost nothing; allocation failures are left for the
// per-name accessors (Color, FontByName) to surface.
func (app *App) PrefetchResources(colors, fonts, cursors []string) {
	type colorFetch struct {
		key string
		ck  xclient.NamedColorCookie
	}
	type fontFetch struct {
		name string
		ck   xclient.FontCookie
	}
	var colorFetches []colorFetch
	var fontFetches []fontFetch
	for _, name := range colors {
		if name == "" {
			continue
		}
		key := strings.ToLower(name)
		if _, ok := app.colorCache[key]; ok {
			continue
		}
		dup := false
		for _, f := range colorFetches {
			if f.key == key {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		app.colorStats.misses.Inc()
		colorFetches = append(colorFetches, colorFetch{key: key, ck: app.Disp.AllocNamedColorAsync(name)})
	}
	for _, name := range fonts {
		if name == "" {
			continue
		}
		if _, ok := app.fontCache[name]; ok {
			continue
		}
		dup := false
		for _, f := range fontFetches {
			if f.name == name {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		app.fontStats.misses.Inc()
		fontFetches = append(fontFetches, fontFetch{name: name, ck: app.Disp.OpenFontAsync(name)})
	}
	// Cursor creation is one-way (no reply), so it rides in the same
	// segment for free.
	for _, name := range cursors {
		if name == "" {
			continue
		}
		if _, ok := app.cursorCache[name]; ok {
			continue
		}
		app.cursorStats.misses.Inc()
		app.cursorCache[name] = app.Disp.CreateCursor(name)
	}
	// One flush covers the whole batch; the waits then drain replies in
	// order.
	for _, f := range colorFetches {
		if px, found, err := f.ck.Wait(); err == nil && found {
			app.storeColor(f.key, px)
		}
	}
	for _, f := range fontFetches {
		if font, err := f.ck.Wait(); err == nil {
			app.fontCache[f.name] = font
		}
	}
}
