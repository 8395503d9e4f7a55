package xclient

import (
	"repro/internal/xproto"
)

// WindowAttributes collects the optional settings for CreateWindow.
type WindowAttributes struct {
	Background       uint32
	Border           uint32
	EventMask        uint32
	OverrideRedirect bool
}

// CreateWindow creates a child window of parent and returns its ID.
func (d *Display) CreateWindow(parent xproto.ID, x, y, w, h, borderWidth int, attrs WindowAttributes) xproto.ID {
	id := d.NewID()
	d.Request(&xproto.CreateWindowReq{
		Wid: id, Parent: parent,
		X: int16(x), Y: int16(y),
		Width: uint16(w), Height: uint16(h), BorderWidth: uint16(borderWidth),
		Background: attrs.Background, Border: attrs.Border,
		EventMask: attrs.EventMask, OverrideRedirect: attrs.OverrideRedirect,
	})
	return id
}

// DestroyWindow destroys a window and its descendants, and hands back
// the window's ID (FreeID).
func (d *Display) DestroyWindow(w xproto.ID) {
	d.Request(&xproto.DestroyWindowReq{Window: w})
	d.FreeID(w)
}

// MapWindow makes a window viewable.
func (d *Display) MapWindow(w xproto.ID) {
	d.Request(&xproto.MapWindowReq{Window: w})
}

// UnmapWindow hides a window.
func (d *Display) UnmapWindow(w xproto.ID) {
	d.Request(&xproto.UnmapWindowReq{Window: w})
}

// SelectInput sets this client's event mask on a window.
func (d *Display) SelectInput(w xproto.ID, mask uint32) {
	d.Request(&xproto.ChangeWindowAttributesReq{
		Window: w, Mask: xproto.AttrEventMask, EventMask: mask,
	})
}

// SetWindowBackground changes a window's background pixel.
func (d *Display) SetWindowBackground(w xproto.ID, pixel uint32) {
	d.Request(&xproto.ChangeWindowAttributesReq{
		Window: w, Mask: xproto.AttrBackground, Background: pixel,
	})
}

// SetWindowBorder changes a window's border pixel.
func (d *Display) SetWindowBorder(w xproto.ID, pixel uint32) {
	d.Request(&xproto.ChangeWindowAttributesReq{
		Window: w, Mask: xproto.AttrBorder, Border: pixel,
	})
}

// MoveResizeWindow sets a window's position and size in one request.
func (d *Display) MoveResizeWindow(w xproto.ID, x, y, width, height int) {
	d.Request(&xproto.ConfigureWindowReq{
		Window: w,
		Mask:   xproto.CWX | xproto.CWY | xproto.CWWidth | xproto.CWHeight,
		X:      int16(x), Y: int16(y),
		Width: uint16(width), Height: uint16(height),
	})
}

// MoveWindow repositions a window.
func (d *Display) MoveWindow(w xproto.ID, x, y int) {
	d.Request(&xproto.ConfigureWindowReq{
		Window: w, Mask: xproto.CWX | xproto.CWY, X: int16(x), Y: int16(y),
	})
}

// ResizeWindow changes a window's size.
func (d *Display) ResizeWindow(w xproto.ID, width, height int) {
	d.Request(&xproto.ConfigureWindowReq{
		Window: w, Mask: xproto.CWWidth | xproto.CWHeight,
		Width: uint16(width), Height: uint16(height),
	})
}

// SetBorderWidth changes a window's border width.
func (d *Display) SetBorderWidth(w xproto.ID, bw int) {
	d.Request(&xproto.ConfigureWindowReq{
		Window: w, Mask: xproto.CWBorderWidth, BorderWidth: uint16(bw),
	})
}

// RaiseWindow restacks a window above its siblings.
func (d *Display) RaiseWindow(w xproto.ID) {
	d.Request(&xproto.ConfigureWindowReq{
		Window: w, Mask: xproto.CWStackMode, StackMode: xproto.StackAbove,
	})
}

// LowerWindow restacks a window below its siblings.
func (d *Display) LowerWindow(w xproto.ID) {
	d.Request(&xproto.ConfigureWindowReq{
		Window: w, Mask: xproto.CWStackMode, StackMode: xproto.StackBelow,
	})
}

// GetGeometry fetches a drawable's geometry (a round trip).
func (d *Display) GetGeometry(w xproto.ID) (xproto.GeometryReply, error) {
	var rep xproto.GeometryReply
	err := d.RoundTrip(&xproto.GetGeometryReq{Drawable: w}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep, err
}

// QueryTree fetches a window's parent and children (a round trip).
func (d *Display) QueryTree(w xproto.ID) (xproto.QueryTreeReply, error) {
	var rep xproto.QueryTreeReply
	err := d.RoundTrip(&xproto.QueryTreeReq{Window: w}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep, err
}

// InternAtom interns an atom (a round trip).
func (d *Display) InternAtom(name string) (xproto.Atom, error) {
	var rep xproto.AtomReply
	err := d.RoundTrip(&xproto.InternAtomReq{Name: name}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep.Atom, err
}

// AtomCookie is a pending InternAtom reply.
type AtomCookie struct{ ck *Cookie }

// Seq reports the sequence number of the underlying request.
func (c AtomCookie) Seq() uint64 { return c.ck.Seq() }

// InternAtomAsync issues an InternAtom without waiting; several atoms
// can be interned in one pipelined flight.
func (d *Display) InternAtomAsync(name string) AtomCookie {
	return AtomCookie{d.SendWithReply(&xproto.InternAtomReq{Name: name})}
}

// Wait blocks for the interned atom.
func (c AtomCookie) Wait() (xproto.Atom, error) {
	var rep xproto.AtomReply
	err := c.ck.Wait(func(r *xproto.Reader) { rep.Decode(r) })
	return rep.Atom, err
}

// GetAtomName resolves an atom to its name (a round trip).
func (d *Display) GetAtomName(a xproto.Atom) (string, error) {
	var rep xproto.NameReply
	err := d.RoundTrip(&xproto.GetAtomNameReq{Atom: a}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep.Name, err
}

// ChangeProperty replaces a window property.
func (d *Display) ChangeProperty(w xproto.ID, prop, typ xproto.Atom, data []byte) {
	d.Request(&xproto.ChangePropertyReq{
		Window: w, Property: prop, Type: typ,
		Mode: xproto.PropModeReplace, Data: data,
	})
}

// AppendProperty appends to a window property.
func (d *Display) AppendProperty(w xproto.ID, prop, typ xproto.Atom, data []byte) {
	d.Request(&xproto.ChangePropertyReq{
		Window: w, Property: prop, Type: typ,
		Mode: xproto.PropModeAppend, Data: data,
	})
}

// DeleteProperty removes a property.
func (d *Display) DeleteProperty(w xproto.ID, prop xproto.Atom) {
	d.Request(&xproto.DeletePropertyReq{Window: w, Property: prop})
}

// GetProperty reads a property (a round trip), optionally deleting it.
func (d *Display) GetProperty(w xproto.ID, prop xproto.Atom, del bool) (xproto.GetPropertyReply, error) {
	var rep xproto.GetPropertyReply
	err := d.RoundTrip(&xproto.GetPropertyReq{Window: w, Property: prop, Delete: del},
		func(r *xproto.Reader) { rep.Decode(r) })
	return rep, err
}

// ListProperties lists the property atoms on a window (a round trip).
func (d *Display) ListProperties(w xproto.ID) ([]xproto.Atom, error) {
	var rep xproto.ListPropertiesReply
	err := d.RoundTrip(&xproto.ListPropertiesReq{Window: w}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep.Atoms, err
}

// SetSelectionOwner claims or releases a selection.
func (d *Display) SetSelectionOwner(sel xproto.Atom, owner xproto.ID, time uint32) {
	d.Request(&xproto.SetSelectionOwnerReq{Selection: sel, Owner: owner, Time: time})
}

// GetSelectionOwner fetches a selection's owner (a round trip).
func (d *Display) GetSelectionOwner(sel xproto.Atom) (xproto.ID, error) {
	var rep xproto.WindowReply
	err := d.RoundTrip(&xproto.GetSelectionOwnerReq{Selection: sel}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep.Window, err
}

// ConvertSelection asks the selection owner to deliver the selection to
// requestor's property (ICCCM).
func (d *Display) ConvertSelection(sel, target, prop xproto.Atom, requestor xproto.ID, time uint32) {
	d.Request(&xproto.ConvertSelectionReq{
		Selection: sel, Target: target, Property: prop,
		Requestor: requestor, Time: time,
	})
}

// SendEvent delivers a synthetic event to a window; with mask 0 it goes
// to the window's creating client.
func (d *Display) SendEvent(dst xproto.ID, mask uint32, ev *xproto.Event) {
	d.Request(&xproto.SendEventReq{Destination: dst, EventMask: mask, Event: *ev})
}

// SetInputFocus assigns the keyboard focus.
func (d *Display) SetInputFocus(w xproto.ID) {
	d.Request(&xproto.SetInputFocusReq{Focus: w})
}

// GetInputFocus fetches the focus window (a round trip).
func (d *Display) GetInputFocus() (xproto.ID, error) {
	var rep xproto.WindowReply
	err := d.RoundTrip(&xproto.GetInputFocusReq{}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep.Window, err
}

// QueryPointer fetches the pointer position and state (a round trip).
func (d *Display) QueryPointer() (xproto.QueryPointerReply, error) {
	var rep xproto.QueryPointerReply
	err := d.RoundTrip(&xproto.QueryPointerReq{}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep, err
}

// Font is a client-side handle for an open server font, with cached
// metrics so that text measurement costs no round trips.
type Font struct {
	ID      xproto.ID
	Name    string
	Ascent  int
	Descent int
	widths  [128]uint8
}

// OpenFont opens a font and queries its metrics (one round trip).
func (d *Display) OpenFont(name string) (*Font, error) {
	return d.OpenFontAsync(name).Wait()
}

// FontCookie is a pending font open + metrics query.
type FontCookie struct {
	ck   *Cookie
	id   xproto.ID
	name string
}

// OpenFontAsync buffers the OpenFont and its metrics query without
// waiting, so several fonts (or a font and other resources) can be
// allocated in one pipelined flight.
func (d *Display) OpenFontAsync(name string) FontCookie {
	id := d.NewID()
	d.Request(&xproto.OpenFontReq{Fid: id, Name: name})
	return FontCookie{
		ck:   d.SendWithReply(&xproto.QueryFontReq{Fid: id}),
		id:   id,
		name: name,
	}
}

// Wait blocks for the font handle with its cached metrics.
func (c FontCookie) Wait() (*Font, error) {
	var rep xproto.QueryFontReply
	if err := c.ck.Wait(func(r *xproto.Reader) { rep.Decode(r) }); err != nil {
		return nil, err
	}
	f := &Font{ID: c.id, Name: c.name, Ascent: int(rep.Ascent), Descent: int(rep.Descent)}
	f.widths = rep.Widths
	return f, nil
}

// CloseFont releases a font.
func (d *Display) CloseFont(f *Font) {
	d.Request(&xproto.CloseFontReq{Fid: f.ID})
	d.FreeID(f.ID)
}

// TextWidth measures a string in this font using cached metrics.
func (f *Font) TextWidth(s string) int {
	w := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c > 127 {
			c = '?'
		}
		w += int(f.widths[c])
	}
	return w
}

// LineHeight is the font's total line height.
func (f *Font) LineHeight() int { return f.Ascent + f.Descent }

// GCValues collects the settable graphics-context fields.
type GCValues struct {
	Mask       uint32
	Foreground uint32
	Background uint32
	LineWidth  int
	Font       xproto.ID
}

// CreateGC creates a graphics context.
func (d *Display) CreateGC(v GCValues) xproto.ID {
	id := d.NewID()
	d.Request(&xproto.CreateGCReq{
		Gid: id, Mask: v.Mask,
		Foreground: v.Foreground, Background: v.Background,
		LineWidth: uint16(v.LineWidth), Font: v.Font,
	})
	return id
}

// ChangeGC updates a graphics context.
func (d *Display) ChangeGC(gc xproto.ID, v GCValues) {
	d.Request(&xproto.ChangeGCReq{
		Gid: gc, Mask: v.Mask,
		Foreground: v.Foreground, Background: v.Background,
		LineWidth: uint16(v.LineWidth), Font: v.Font,
	})
}

// FreeGC releases a graphics context.
func (d *Display) FreeGC(gc xproto.ID) {
	d.Request(&xproto.FreeGCReq{Gid: gc})
	d.FreeID(gc)
}

// CreatePixmap creates an off-screen drawable.
func (d *Display) CreatePixmap(w, h int) xproto.ID {
	id := d.NewID()
	d.Request(&xproto.CreatePixmapReq{Pid: id, Width: uint16(w), Height: uint16(h)})
	return id
}

// FreePixmap releases a pixmap.
func (d *Display) FreePixmap(p xproto.ID) {
	d.Request(&xproto.FreePixmapReq{Pid: p})
	d.FreeID(p)
}

// ClearArea clears a window area to its background; zero width/height
// extend to the edges.
func (d *Display) ClearArea(w xproto.ID, x, y, width, height int) {
	d.Request(&xproto.ClearAreaReq{Window: w, X: int16(x), Y: int16(y), Width: uint16(width), Height: uint16(height)})
}

// ClearWindow clears an entire window to its background.
func (d *Display) ClearWindow(w xproto.ID) { d.ClearArea(w, 0, 0, 0, 0) }

// CopyArea copies pixels between drawables.
func (d *Display) CopyArea(src, dst, gc xproto.ID, sx, sy, dx, dy, w, h int) {
	d.Request(&xproto.CopyAreaReq{
		Src: src, Dst: dst, Gc: gc,
		SrcX: int16(sx), SrcY: int16(sy), DstX: int16(dx), DstY: int16(dy),
		Width: uint16(w), Height: uint16(h),
	})
}

// DrawLine draws one line segment.
func (d *Display) DrawLine(drawable, gc xproto.ID, x1, y1, x2, y2 int) {
	d.Request(&xproto.PolyLineReq{Drawable: drawable, Gc: gc, Points: []xproto.Point{
		{X: int16(x1), Y: int16(y1)}, {X: int16(x2), Y: int16(y2)},
	}})
}

// DrawLines draws connected segments through the points.
func (d *Display) DrawLines(drawable, gc xproto.ID, pts []xproto.Point) {
	d.Request(&xproto.PolyLineReq{Drawable: drawable, Gc: gc, Points: pts})
}

// DrawRectangle outlines a rectangle.
func (d *Display) DrawRectangle(drawable, gc xproto.ID, x, y, w, h int) {
	d.Request(&xproto.PolyRectangleReq{Drawable: drawable, Gc: gc, Rects: []xproto.Rect{
		{X: int16(x), Y: int16(y), W: uint16(w), H: uint16(h)},
	}})
}

// FillRectangle fills a rectangle.
func (d *Display) FillRectangle(drawable, gc xproto.ID, x, y, w, h int) {
	d.Request(&xproto.PolyFillRectangleReq{Drawable: drawable, Gc: gc, Rects: []xproto.Rect{
		{X: int16(x), Y: int16(y), W: uint16(w), H: uint16(h)},
	}})
}

// FillRectangles fills a batch of rectangles with one request — the
// server clips and fills the whole list in a single pass, so many small
// fills (or one storm of large ones) cost one request's dispatch.
func (d *Display) FillRectangles(drawable, gc xproto.ID, rects []xproto.Rect) {
	d.Request(&xproto.PolyFillRectangleReq{Drawable: drawable, Gc: gc, Rects: rects})
}

// FillPolygon fills a polygon.
func (d *Display) FillPolygon(drawable, gc xproto.ID, pts []xproto.Point) {
	d.Request(&xproto.FillPolyReq{Drawable: drawable, Gc: gc, Points: pts})
}

// DrawString draws text with its baseline at (x, y).
func (d *Display) DrawString(drawable, gc xproto.ID, x, y int, s string) {
	d.Request(&xproto.PolyText8Req{Drawable: drawable, Gc: gc, X: int16(x), Y: int16(y), Text: s})
}

// AllocColor allocates a color from 16-bit components (a round trip).
func (d *Display) AllocColor(r, g, b uint16) (uint32, error) {
	var rep xproto.ColorReply
	err := d.RoundTrip(&xproto.AllocColorReq{R: r, G: g, B: b}, func(rd *xproto.Reader) { rep.Decode(rd) })
	return rep.Pixel, err
}

// AllocNamedColor resolves a color name (a round trip). found is false
// when the name is not in the server database.
func (d *Display) AllocNamedColor(name string) (pixel uint32, found bool, err error) {
	return d.AllocNamedColorAsync(name).Wait()
}

// NamedColorCookie is a pending AllocNamedColor reply.
type NamedColorCookie struct{ ck *Cookie }

// AllocNamedColorAsync issues an AllocNamedColor without waiting;
// several colors can be allocated in one pipelined flight.
func (d *Display) AllocNamedColorAsync(name string) NamedColorCookie {
	return NamedColorCookie{d.SendWithReply(&xproto.AllocNamedColorReq{Name: name})}
}

// Wait blocks for the allocated pixel.
func (c NamedColorCookie) Wait() (pixel uint32, found bool, err error) {
	var rep xproto.ColorReply
	err = c.ck.Wait(func(rd *xproto.Reader) { rep.Decode(rd) })
	return rep.Pixel, rep.Found, err
}

// CreateCursor creates a named cursor shape.
func (d *Display) CreateCursor(shape string) xproto.ID {
	id := d.NewID()
	d.Request(&xproto.CreateCursorReq{Cid: id, Shape: shape})
	return id
}

// SetWindowCursor assigns a cursor to a window.
func (d *Display) SetWindowCursor(w, cursor xproto.ID) {
	d.Request(&xproto.ChangeWindowAttributesReq{Window: w, Mask: xproto.AttrCursor, Cursor: cursor})
}

// Bell rings the display bell.
func (d *Display) Bell() { d.Request(&xproto.BellReq{}) }

// WarpPointer injects pointer motion to absolute coordinates.
func (d *Display) WarpPointer(x, y int) {
	d.Request(&xproto.FakeInputReq{Kind: xproto.FakeMotion, X: int16(x), Y: int16(y)})
}

// FakeButton injects a button press or release.
func (d *Display) FakeButton(button int, press bool) {
	kind := xproto.FakeButtonRelease
	if press {
		kind = xproto.FakeButtonPress
	}
	d.Request(&xproto.FakeInputReq{Kind: kind, Detail: uint32(button)})
}

// FakeKey injects a key press or release by keysym.
func (d *Display) FakeKey(ks xproto.Keysym, press bool) {
	kind := xproto.FakeKeyRelease
	if press {
		kind = xproto.FakeKeyPress
	}
	d.Request(&xproto.FakeInputReq{Kind: kind, Detail: uint32(ks)})
}

// Screenshot captures the composited screen (window None) or a window's
// subtree (a round trip).
func (d *Display) Screenshot(w xproto.ID) (xproto.ScreenshotReply, error) {
	var rep xproto.ScreenshotReply
	err := d.RoundTrip(&xproto.ScreenshotReq{Window: w}, func(r *xproto.Reader) { rep.Decode(r) })
	return rep, err
}
