package xserver

import (
	"sort"
	"time"

	"repro/internal/xproto"
)

// handle executes one decoded request. Called with s.mu held (dispatch
// takes it once per request; see the Server doc comment). A Screenshot
// returns its plan, which dispatch composes after releasing s.mu.
func (s *Server) handle(c *conn, req xproto.Request) *screenshot {
	switch q := req.(type) {
	// --- Window tree, input and selections. --------------------------
	case *xproto.CreateWindowReq:
		s.handleCreateWindow(c, q)
	case *xproto.ChangeWindowAttributesReq:
		s.handleChangeAttributes(c, q)
	case *xproto.DestroyWindowReq:
		if w := s.window(q.Window); w != nil && w != s.root {
			s.destroyWindow(w)
		}
	case *xproto.MapWindowReq:
		if w := s.window(q.Window); w != nil {
			s.mapWindow(w)
		} else {
			c.protoError("MapWindow: bad window %d", q.Window)
		}
	case *xproto.UnmapWindowReq:
		if w := s.window(q.Window); w != nil {
			s.unmapWindow(w)
		}
	case *xproto.ConfigureWindowReq:
		s.handleConfigureWindow(c, q)
	case *xproto.GetGeometryReq:
		s.handleGetGeometry(c, q)
	case *xproto.QueryTreeReq:
		s.handleQueryTree(c, q)
	case *xproto.ChangePropertyReq:
		s.handleChangeProperty(c, q)
	case *xproto.DeletePropertyReq:
		s.handleDeleteProperty(c, q)
	case *xproto.GetPropertyReq:
		s.handleGetProperty(c, q)
	case *xproto.ListPropertiesReq:
		s.handleListProperties(c, q)
	case *xproto.SetSelectionOwnerReq:
		s.handleSetSelectionOwner(c, q)
	case *xproto.GetSelectionOwnerReq:
		var owner xproto.ID
		if sel := s.selections[q.Selection]; sel != nil && sel.owner != nil {
			owner = sel.owner.id
		}
		c.reply(func(w *xproto.Writer) { (&xproto.WindowReply{Window: owner}).Encode(w) })
	case *xproto.ConvertSelectionReq:
		s.handleConvertSelection(c, q)
	case *xproto.SendEventReq:
		s.handleSendEvent(c, q)
	case *xproto.QueryPointerReq:
		rep := &xproto.QueryPointerReply{
			X: int16(s.pointerX), Y: int16(s.pointerY),
			State: s.buttons | s.modifiers,
		}
		if s.pointerWin != nil {
			rep.Child = s.pointerWin.id
		}
		c.reply(func(w *xproto.Writer) { rep.Encode(w) })
	case *xproto.SetInputFocusReq:
		s.setFocus(q.Focus)
	case *xproto.GetInputFocusReq:
		focus := s.focus
		c.reply(func(w *xproto.Writer) { (&xproto.WindowReply{Window: focus}).Encode(w) })
	case *xproto.FakeInputReq:
		s.handleFakeInput(q)
	case *xproto.ScreenshotReq:
		return s.planScreenshot(c, q)
	case *xproto.ClearAreaReq:
		s.handleClearArea(c, q)
	case *xproto.CopyAreaReq:
		s.handleCopyArea(c, q)

	// --- Atoms. ------------------------------------------------------
	case *xproto.InternAtomReq:
		s.handleInternAtom(c, q)
	case *xproto.GetAtomNameReq:
		name := s.atomNames[q.Atom]
		c.reply(func(w *xproto.Writer) { (&xproto.NameReply{Name: name}).Encode(w) })

	// --- Fonts: font objects are immutable once open. ----------------
	case *xproto.OpenFontReq:
		if s.legalNewID(c, q.Fid, "OpenFont") {
			s.res[q.Fid] = openFont(q.Name)
		}
	case *xproto.CloseFontReq:
		if s.font(q.Fid) != nil {
			s.free(q.Fid)
		}
	case *xproto.QueryFontReq:
		f := s.font(q.Fid)
		if f == nil {
			c.protoError("QueryFont: bad font %d", q.Fid)
			return nil
		}
		rep := &xproto.QueryFontReply{Ascent: int16(f.ascent), Descent: int16(f.descent), Widths: f.widths()}
		c.reply(func(w *xproto.Writer) { rep.Encode(w) })
	case *xproto.QueryTextExtentsReq:
		f := s.font(q.Fid)
		if f == nil {
			c.protoError("QueryTextExtents: bad font %d", q.Fid)
			return nil
		}
		rep := &xproto.QueryTextExtentsReply{
			Ascent:  int16(f.ascent),
			Descent: int16(f.descent),
			Width:   int32(f.textWidth(q.Text)),
		}
		c.reply(func(w *xproto.Writer) { rep.Encode(w) })

	// --- Colors: pure math plus the interned-cell cache. -------------
	case *xproto.AllocColorReq:
		px := uint32(q.R>>8)<<16 | uint32(q.G>>8)<<8 | uint32(q.B>>8)
		rep := &xproto.ColorReply{Found: true, Pixel: px, R: q.R, G: q.G, B: q.B}
		c.reply(func(w *xproto.Writer) { rep.Encode(w) })
	case *xproto.AllocNamedColorReq:
		px, ok := s.allocNamedColor(q.Name)
		rep := &xproto.ColorReply{Found: ok, Pixel: px,
			R: uint16(px>>16&0xff) * 0x101, G: uint16(px>>8&0xff) * 0x101, B: uint16(px&0xff) * 0x101}
		c.reply(func(w *xproto.Writer) { rep.Encode(w) })

	// --- Per-client resources. ----------------------------------------
	case *xproto.CreatePixmapReq:
		// Quota is reserved for the nominal flat size before the tiles
		// are allocated.
		if !s.legalNewID(c, q.Pid, "CreatePixmap") {
			return nil
		}
		bytes := int64(q.Width) * int64(q.Height) * 4
		if !reserveQuota(&s.usedPixmapBytes, s.quota.MaxPixmapBytes, bytes) {
			s.quotaDenied(c, "pixmap_bytes", "CreatePixmap", s.quota.MaxPixmapBytes)
			return nil
		}
		s.res[q.Pid] = &pixmap{img: newImageM(int(q.Width), int(q.Height), s.render), bytes: bytes}
	case *xproto.FreePixmapReq:
		if s.pixmap(q.Pid) != nil {
			s.free(q.Pid)
		}
	case *xproto.CreateGCReq:
		if !s.legalNewID(c, q.Gid, "CreateGC") {
			return nil
		}
		if !reserveQuota(&s.usedGCs, s.quota.MaxGCs, 1) {
			s.quotaDenied(c, "gcs", "CreateGC", s.quota.MaxGCs)
			return nil
		}
		gc := &gcontext{foreground: 0, background: 0xffffff, lineWidth: 1}
		applyGC(gc, q.Mask, q.Foreground, q.Background, q.LineWidth, q.Font)
		s.res[q.Gid] = gc
	case *xproto.ChangeGCReq:
		if gc := s.gc(q.Gid); gc != nil {
			applyGC(gc, q.Mask, q.Foreground, q.Background, q.LineWidth, q.Font)
		} else {
			c.protoError("ChangeGC: bad gc %d", q.Gid)
		}
	case *xproto.FreeGCReq:
		if s.gc(q.Gid) != nil {
			s.free(q.Gid)
		}
	case *xproto.CreateCursorReq:
		if s.legalNewID(c, q.Cid, "CreateCursor") {
			s.res[q.Cid] = &cursor{shape: q.Shape}
		}

	// --- Drawing. ----------------------------------------------------
	case *xproto.PolyLineReq:
		if gc, im := s.gc(q.Gc), s.drawable(q.Drawable); gc != nil && im != nil {
			begin := time.Now()
			for i := 0; i+1 < len(q.Points); i++ {
				im.drawLine(int(q.Points[i].X), int(q.Points[i].Y),
					int(q.Points[i+1].X), int(q.Points[i+1].Y), gc.lineWidth, gc.foreground)
			}
			s.render.line.Observe(time.Since(begin))
		}
	case *xproto.PolySegmentReq:
		if gc, im := s.gc(q.Gc), s.drawable(q.Drawable); gc != nil && im != nil {
			begin := time.Now()
			for i := 0; i+1 < len(q.Points); i += 2 {
				im.drawLine(int(q.Points[i].X), int(q.Points[i].Y),
					int(q.Points[i+1].X), int(q.Points[i+1].Y), gc.lineWidth, gc.foreground)
			}
			s.render.line.Observe(time.Since(begin))
		}
	case *xproto.PolyRectangleReq:
		if gc, im := s.gc(q.Gc), s.drawable(q.Drawable); gc != nil && im != nil {
			begin := time.Now()
			for _, rc := range q.Rects {
				im.drawRect(int(rc.X), int(rc.Y), int(rc.W), int(rc.H), gc.lineWidth, gc.foreground)
			}
			s.render.line.Observe(time.Since(begin))
		}
	case *xproto.FillPolyReq:
		if gc, im := s.gc(q.Gc), s.drawable(q.Drawable); gc != nil && im != nil {
			begin := time.Now()
			im.fillPoly(q.Points, gc.foreground)
			s.render.fill.Observe(time.Since(begin))
		}
	case *xproto.PolyFillRectangleReq:
		// The dominant opcode by volume: its rectangles fill in order,
		// and the request's service time lands in render.fill.
		if gc := s.gc(q.Gc); gc != nil {
			begin := time.Now()
			if im := s.drawable(q.Drawable); im != nil {
				im.fillRects(q.Rects, gc.foreground)
			}
			s.render.fill.Observe(time.Since(begin))
		}
	case *xproto.PolyText8Req:
		s.handleDrawText(c, q.Drawable, q.Gc, q.X, q.Y, q.Text, false)
	case *xproto.ImageText8Req:
		s.handleDrawText(c, q.Drawable, q.Gc, q.X, q.Y, q.Text, true)

	// --- Odds and ends. ----------------------------------------------
	case *xproto.BellReq:
		// The simulated bell rings silently.
	case *xproto.PingReq:
		c.reply(func(w *xproto.Writer) {})
	default:
		c.protoError("unhandled request %T", req)
	}
	return nil
}

// applyGC mutates gc per mask.
func applyGC(gc *gcontext, mask, fg, bg uint32, lw uint16, font xproto.ID) {
	if mask&xproto.GCForeground != 0 {
		gc.foreground = fg
	}
	if mask&xproto.GCBackground != 0 {
		gc.background = bg
	}
	if mask&xproto.GCLineWidth != 0 {
		gc.lineWidth = int(lw)
	}
	if mask&xproto.GCFont != 0 {
		gc.font = font
	}
}

// handleCreateWindow creates a window. Called with s.mu held.
func (s *Server) handleCreateWindow(c *conn, q *xproto.CreateWindowReq) {
	parent := s.window(q.Parent)
	if parent == nil {
		c.protoError("CreateWindow: bad parent %d", q.Parent)
		return
	}
	if !s.legalNewID(c, q.Wid, "CreateWindow") {
		return
	}
	// Reserve after the validity checks so a denied or invalid request
	// leaves usage untouched; destroyWindow releases the reservation.
	if !reserveQuota(&s.usedWindows, s.quota.MaxWindows, 1) {
		s.quotaDenied(c, "windows", "CreateWindow", s.quota.MaxWindows)
		return
	}
	w := &window{
		id:          q.Wid,
		parent:      parent,
		x:           int(q.X),
		y:           int(q.Y),
		w:           max(int(q.Width), 1),
		h:           max(int(q.Height), 1),
		borderWidth: int(q.BorderWidth),
		background:  q.Background,
		border:      q.Border,
		override:    q.OverrideRedirect,
		masks:       make(map[*conn]uint32),
		props:       make(map[xproto.Atom]property),
		owner:       c,
	}
	w.img = newFilledImage(w.w, w.h, w.background, s.render)
	if q.EventMask != 0 {
		w.masks[c] = q.EventMask
	}
	parent.children = append(parent.children, w)
	s.res[q.Wid] = w
}

// handleChangeAttributes updates window attributes. Called with s.mu
// held.
func (s *Server) handleChangeAttributes(c *conn, q *xproto.ChangeWindowAttributesReq) {
	w := s.window(q.Window)
	if w == nil {
		c.protoError("ChangeWindowAttributes: bad window %d", q.Window)
		return
	}
	if q.Mask&xproto.AttrBackground != 0 {
		w.background = q.Background
	}
	if q.Mask&xproto.AttrBorder != 0 {
		w.border = q.Border
	}
	if q.Mask&xproto.AttrEventMask != 0 {
		if q.EventMask == 0 {
			delete(w.masks, c)
		} else {
			w.masks[c] = q.EventMask
		}
	}
	if q.Mask&xproto.AttrOverride != 0 {
		w.override = q.OverrideRedirect
	}
	if q.Mask&xproto.AttrCursor != 0 {
		w.cursor = s.cursor(q.Cursor)
	}
}

// handleConfigureWindow moves/resizes/restacks a window. Called with
// s.mu held.
func (s *Server) handleConfigureWindow(c *conn, q *xproto.ConfigureWindowReq) {
	w := s.window(q.Window)
	if w == nil || w == s.root {
		c.protoError("ConfigureWindow: bad window %d", q.Window)
		return
	}
	resized := false
	if q.Mask&xproto.CWX != 0 {
		w.x = int(q.X)
	}
	if q.Mask&xproto.CWY != 0 {
		w.y = int(q.Y)
	}
	// Sizes are clamped to 1 before comparing, so re-sending a zero
	// size to a window already clamped is not a resize.
	if nw := max(int(q.Width), 1); q.Mask&xproto.CWWidth != 0 && nw != w.w {
		w.w = nw
		resized = true
	}
	if nh := max(int(q.Height), 1); q.Mask&xproto.CWHeight != 0 && nh != w.h {
		w.h = nh
		resized = true
	}
	if q.Mask&xproto.CWBorderWidth != 0 {
		w.borderWidth = int(q.BorderWidth)
	}
	if q.Mask&xproto.CWStackMode != 0 && w.parent != nil {
		sibs := w.parent.children
		for i, sib := range sibs {
			if sib == w {
				sibs = append(sibs[:i], sibs[i+1:]...)
				break
			}
		}
		if q.StackMode == xproto.StackAbove {
			sibs = append(sibs, w)
		} else {
			sibs = append([]*window{w}, sibs...)
		}
		w.parent.children = sibs
	}
	if resized {
		w.img.release()
		w.img = newFilledImage(w.w, w.h, w.background, s.render)
	}
	s.sendConfigureNotify(w)
	if resized && s.viewable(w) {
		s.sendExpose(w)
	}
	s.refreshPointerWindow()
}

// handleGetGeometry answers for windows and pixmaps. Called with s.mu
// held.
func (s *Server) handleGetGeometry(c *conn, q *xproto.GetGeometryReq) {
	var rep *xproto.GeometryReply
	switch r := s.res[q.Drawable].(type) {
	case *window:
		rep = &xproto.GeometryReply{
			Root: s.Root(), X: int16(r.x), Y: int16(r.y),
			Width: uint16(r.w), Height: uint16(r.h), BorderWidth: uint16(r.borderWidth),
		}
	case *pixmap:
		rep = &xproto.GeometryReply{Width: uint16(r.img.w), Height: uint16(r.img.h)}
	default:
		c.protoError("GetGeometry: bad drawable %d", q.Drawable)
		return
	}
	c.reply(func(wr *xproto.Writer) { rep.Encode(wr) })
}

// handleQueryTree reports a window's parent and children. Called with
// s.mu held.
func (s *Server) handleQueryTree(c *conn, q *xproto.QueryTreeReq) {
	w := s.window(q.Window)
	if w == nil {
		c.protoError("QueryTree: bad window %d", q.Window)
		return
	}
	rep := &xproto.QueryTreeReply{Root: s.Root()}
	if w.parent != nil {
		rep.Parent = w.parent.id
	}
	for _, ch := range w.children {
		rep.Children = append(rep.Children, ch.id)
	}
	c.reply(func(wr *xproto.Writer) { rep.Encode(wr) })
}

// handleInternAtom interns an atom. Called with s.mu held.
func (s *Server) handleInternAtom(c *conn, q *xproto.InternAtomReq) {
	a, ok := s.atoms[q.Name]
	if !ok && !q.OnlyIfExists {
		a = s.nextAtom
		s.nextAtom++
		s.atoms[q.Name] = a
		s.atomNames[a] = q.Name
	}
	c.reply(func(w *xproto.Writer) { (&xproto.AtomReply{Atom: a}).Encode(w) })
}

// handleChangeProperty updates a window property. Called with s.mu held.
func (s *Server) handleChangeProperty(c *conn, q *xproto.ChangePropertyReq) {
	w := s.window(q.Window)
	if w == nil {
		c.protoError("ChangeProperty: bad window %d", q.Window)
		return
	}
	old := w.props[q.Property]
	switch q.Mode {
	case xproto.PropModeReplace:
		w.props[q.Property] = property{typ: q.Type, data: q.Data}
	case xproto.PropModeAppend:
		w.props[q.Property] = property{typ: q.Type, data: append(append([]byte(nil), old.data...), q.Data...)}
	case xproto.PropModePrepend:
		w.props[q.Property] = property{typ: q.Type, data: append(append([]byte(nil), q.Data...), old.data...)}
	}
	s.sendPropertyNotify(w, q.Property, xproto.PropertyNewValue)
}

// handleDeleteProperty removes a window property. Called with s.mu held.
func (s *Server) handleDeleteProperty(c *conn, q *xproto.DeletePropertyReq) {
	w := s.window(q.Window)
	if w == nil {
		return
	}
	if _, ok := w.props[q.Property]; ok {
		delete(w.props, q.Property)
		s.sendPropertyNotify(w, q.Property, xproto.PropertyDeleted)
	}
}

// handleGetProperty reads (and optionally deletes) a property. Called
// with s.mu held.
func (s *Server) handleGetProperty(c *conn, q *xproto.GetPropertyReq) {
	w := s.window(q.Window)
	if w == nil {
		c.protoError("GetProperty: bad window %d", q.Window)
		return
	}
	p, ok := w.props[q.Property]
	rep := &xproto.GetPropertyReply{Found: ok, Type: p.typ, Data: p.data}
	c.reply(func(wr *xproto.Writer) { rep.Encode(wr) })
	if ok && q.Delete {
		delete(w.props, q.Property)
		s.sendPropertyNotify(w, q.Property, xproto.PropertyDeleted)
	}
}

// handleListProperties lists a window's property atoms. Called with
// s.mu held.
func (s *Server) handleListProperties(c *conn, q *xproto.ListPropertiesReq) {
	w := s.window(q.Window)
	if w == nil {
		c.protoError("ListProperties: bad window %d", q.Window)
		return
	}
	rep := &xproto.ListPropertiesReply{}
	for a := range w.props {
		rep.Atoms = append(rep.Atoms, a)
	}
	sort.Slice(rep.Atoms, func(i, j int) bool { return rep.Atoms[i] < rep.Atoms[j] })
	c.reply(func(wr *xproto.Writer) { rep.Encode(wr) })
}

// handleSetSelectionOwner transfers selection ownership. Called with
// s.mu held.
func (s *Server) handleSetSelectionOwner(c *conn, q *xproto.SetSelectionOwnerReq) {
	var newOwner *window
	if q.Owner != xproto.None {
		newOwner = s.window(q.Owner)
		if newOwner == nil {
			c.protoError("SetSelectionOwner: bad window %d", q.Owner)
			return
		}
	}
	old := s.selections[q.Selection]
	if old != nil && old.owner != nil && old.owner != newOwner {
		// ICCCM: notify the previous owner that it lost the selection.
		ev := &xproto.Event{
			Type:      xproto.SelectionClear,
			Window:    old.owner.id,
			Selection: q.Selection,
			Time:      s.now(),
		}
		if old.owner.owner != nil {
			s.sendEvent(old.owner.owner, ev)
		}
	}
	if newOwner == nil {
		delete(s.selections, q.Selection)
	} else {
		s.selections[q.Selection] = &selection{owner: newOwner, time: q.Time}
	}
}

// handleConvertSelection routes a selection conversion. Called with s.mu
// held.
func (s *Server) handleConvertSelection(c *conn, q *xproto.ConvertSelectionReq) {
	requestor := s.window(q.Requestor)
	if requestor == nil {
		c.protoError("ConvertSelection: bad requestor %d", q.Requestor)
		return
	}
	sel := s.selections[q.Selection]
	if sel == nil || sel.owner == nil || sel.owner.owner == nil {
		// No owner: refuse with property None, per ICCCM.
		ev := &xproto.Event{
			Type:      xproto.SelectionNotify,
			Window:    q.Requestor,
			Requestor: q.Requestor,
			Selection: q.Selection,
			Target:    q.Target,
			Property:  xproto.AtomNone,
			Time:      s.now(),
		}
		if requestor.owner != nil {
			s.sendEvent(requestor.owner, ev)
		}
		return
	}
	// Forward a SelectionRequest to the owner.
	ev := &xproto.Event{
		Type:      xproto.SelectionRequest,
		Window:    sel.owner.id,
		Requestor: q.Requestor,
		Selection: q.Selection,
		Target:    q.Target,
		Property:  q.Property,
		Time:      q.Time,
	}
	s.sendEvent(sel.owner.owner, ev)
}

// handleSendEvent forwards a client-constructed event. Called with s.mu
// held.
func (s *Server) handleSendEvent(c *conn, q *xproto.SendEventReq) {
	w := s.window(q.Destination)
	if w == nil {
		c.protoError("SendEvent: bad window %d", q.Destination)
		return
	}
	ev := q.Event
	ev.SendEvent = true
	ev.Window = w.id
	if q.EventMask == 0 {
		// X semantics: deliver to the client that created the window.
		if w.owner != nil {
			s.sendEvent(w.owner, &ev)
		}
		return
	}
	for cc, mask := range w.masks {
		if mask&q.EventMask != 0 {
			s.sendEvent(cc, &ev)
		}
	}
}

// handleClearArea clears a window rectangle. Called with s.mu held.
func (s *Server) handleClearArea(c *conn, q *xproto.ClearAreaReq) {
	w := s.window(q.Window)
	if w == nil {
		c.protoError("ClearArea: bad window %d", q.Window)
		return
	}
	wd, ht := int(q.Width), int(q.Height)
	if wd == 0 {
		wd = w.w - int(q.X)
	}
	if ht == 0 {
		ht = w.h - int(q.Y)
	}
	w.img.fillRect(int(q.X), int(q.Y), wd, ht, w.background)
}

// handleCopyArea copies pixels between drawables. Called with s.mu held.
func (s *Server) handleCopyArea(c *conn, q *xproto.CopyAreaReq) {
	begin := time.Now()
	defer func() { s.render.copyArea.Observe(time.Since(begin)) }()
	src, dst := s.drawable(q.Src), s.drawable(q.Dst)
	if src == nil || dst == nil {
		c.protoError("CopyArea: bad drawable")
		return
	}
	dst.copyFrom(src, int(q.SrcX), int(q.SrcY), int(q.DstX), int(q.DstY), int(q.Width), int(q.Height))
}

// handleDrawText draws text into a drawable in the GC's font. Called
// with s.mu held.
func (s *Server) handleDrawText(c *conn, drawable, gcID xproto.ID, x, y int16, text string, imageText bool) {
	gc := s.gc(gcID)
	if gc == nil {
		c.protoError("DrawText: bad drawable or gc")
		return
	}
	f := s.font(gc.font)
	if f == nil {
		f = openFont("fixed")
	}
	begin := time.Now()
	im := s.drawable(drawable)
	if im != nil {
		if imageText {
			im.fillRect(int(x), int(y)-f.ascent, f.textWidth(text), f.ascent+f.descent, gc.background)
		}
		f.drawString(im, int(x), int(y), text, gc.foreground)
	}
	s.render.text.Observe(time.Since(begin))
	if im == nil {
		c.protoError("DrawText: bad drawable or gc")
	}
}
