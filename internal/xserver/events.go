package xserver

import (
	"slices"

	"repro/internal/xproto"
)

// viewable reports whether w and all its ancestors are mapped. Called with s.mu held.
func (s *Server) viewable(w *window) bool {
	for x := w; x != nil; x = x.parent {
		if !x.mapped {
			return false
		}
	}
	return true
}

// absPos returns the absolute (root-relative) position of w's content
// origin. Called with s.mu held.
func (s *Server) absPos(w *window) (int, int) {
	x, y := 0, 0
	for cur := w; cur != nil; cur = cur.parent {
		x += cur.x + cur.borderWidth
		y += cur.y + cur.borderWidth
	}
	// The root has no offset of its own.
	return x, y
}

// deepestAt finds the deepest viewable window containing the absolute
// point (x, y), starting from the root. Called with s.mu held.
func (s *Server) deepestAt(x, y int) *window {
	cur := s.root
	cx, cy := 0, 0
	for {
		found := false
		// Children are stored bottom-to-top; scan topmost first.
		for i := len(cur.children) - 1; i >= 0; i-- {
			ch := cur.children[i]
			if !ch.mapped {
				continue
			}
			ox := cx + ch.x + ch.borderWidth
			oy := cy + ch.y + ch.borderWidth
			if x >= ox && y >= oy && x < ox+ch.w && y < oy+ch.h {
				cur, cx, cy = ch, ox, oy
				found = true
				break
			}
		}
		if !found {
			return cur
		}
	}
}

// broadcast sends ev to every client that selected mask on w. It reports
// whether anyone received it. Called with s.mu held.
func (s *Server) broadcast(w *window, ev *xproto.Event, mask uint32) bool {
	delivered := false
	for c, m := range w.masks {
		if m&mask != 0 {
			s.sendEvent(c, ev)
			delivered = true
		}
	}
	return delivered
}

// deliverDevice routes a device event (key/button/motion) to target,
// propagating to ancestors until some client has selected it, translating
// coordinates as it goes (X11 event propagation). Called with s.mu held.
func (s *Server) deliverDevice(target *window, ev *xproto.Event, mask uint32) {
	w := target
	for w != nil {
		ax, ay := s.absPos(w)
		ev.Window = w.id
		ev.X = int16(s.pointerX - ax)
		ev.Y = int16(s.pointerY - ay)
		if s.broadcast(w, ev, mask) {
			return
		}
		w = w.parent
	}
}

// Called with s.mu held.
func (s *Server) sendExpose(w *window) {
	ev := &xproto.Event{
		Type: xproto.Expose, Window: w.id,
		Width: uint16(w.w), Height: uint16(w.h), Time: s.now(),
	}
	s.broadcast(w, ev, xproto.ExposureMask)
}

// sendExposeTree exposes w and every viewable descendant. Called with s.mu held.
func (s *Server) sendExposeTree(w *window) {
	if !s.viewable(w) {
		return
	}
	s.sendExpose(w)
	for _, ch := range w.children {
		if ch.mapped {
			s.sendExposeTree(ch)
		}
	}
}

// Called with s.mu held.
func (s *Server) sendConfigureNotify(w *window) {
	ev := &xproto.Event{
		Type: xproto.ConfigureNotify, Window: w.id,
		X: int16(w.x), Y: int16(w.y),
		Width: uint16(w.w), Height: uint16(w.h),
		BorderWidth: uint16(w.borderWidth), Time: s.now(),
	}
	s.broadcast(w, ev, xproto.StructureNotifyMask)
}

// Called with s.mu held.
func (s *Server) sendPropertyNotify(w *window, atom xproto.Atom, state uint8) {
	ev := &xproto.Event{
		Type: xproto.PropertyNotify, Window: w.id,
		Atom: atom, PropState: state, Time: s.now(),
	}
	s.broadcast(w, ev, xproto.PropertyChangeMask)
}

// Called with s.mu held.
func (s *Server) mapWindow(w *window) {
	if w.mapped {
		return
	}
	w.mapped = true
	ev := &xproto.Event{Type: xproto.MapNotify, Window: w.id, Time: s.now()}
	s.broadcast(w, ev, xproto.StructureNotifyMask)
	s.sendExposeTree(w)
	s.refreshPointerWindow()
}

// Called with s.mu held.
func (s *Server) unmapWindow(w *window) {
	if !w.mapped {
		return
	}
	w.mapped = false
	ev := &xproto.Event{Type: xproto.UnmapNotify, Window: w.id, Time: s.now()}
	s.broadcast(w, ev, xproto.StructureNotifyMask)
	s.refreshPointerWindow()
}

// destroyWindow removes w and its subtree, notifying interested clients
// (children first, as X does), and gives the slabs of their images
// back. Called with s.mu held.
func (s *Server) destroyWindow(w *window) {
	for len(w.children) > 0 {
		s.destroyWindow(w.children[len(w.children)-1])
	}
	w.mapped = false
	ev := &xproto.Event{Type: xproto.DestroyNotify, Window: w.id, Time: s.now()}
	s.broadcast(w, ev, xproto.StructureNotifyMask)
	if w.parent != nil {
		// slices.Delete zeroes the vacated slot, so the parent's array
		// does not keep the destroyed window reachable.
		if i := slices.Index(w.parent.children, w); i >= 0 {
			w.parent.children = slices.Delete(w.parent.children, i, i+1)
		}
	}
	delete(s.res, w.id)
	w.img.release()
	if w != s.root {
		// Every non-root window in the table passed through
		// handleCreateWindow's quota reservation exactly once; this is
		// the matching release (recursion covers the subtree).
		s.usedWindows--
	}
	for sel, o := range s.selections {
		if o.owner == w {
			delete(s.selections, sel)
		}
	}
	if s.focus == w.id {
		s.focus = xproto.None
	}
	if s.grabWin == w {
		s.grabWin = nil
	}
	if s.pointerWin == w {
		s.pointerWin = nil
		s.refreshPointerWindow()
	}
	w.parent = nil
}

// Called with s.mu held.
func (s *Server) setFocus(f xproto.ID) {
	if s.focus == f {
		return
	}
	if old := s.window(s.focus); old != nil {
		ev := &xproto.Event{Type: xproto.FocusOut, Window: old.id, Time: s.now()}
		s.broadcast(old, ev, xproto.FocusChangeMask)
	}
	s.focus = f
	if nw := s.window(f); nw != nil {
		ev := &xproto.Event{Type: xproto.FocusIn, Window: nw.id, Time: s.now()}
		s.broadcast(nw, ev, xproto.FocusChangeMask)
	}
}

// refreshPointerWindow recomputes which window contains the pointer and
// generates crossing events on change. Called with s.mu held.
func (s *Server) refreshPointerWindow() {
	newWin := s.deepestAt(s.pointerX, s.pointerY)
	old := s.pointerWin
	if newWin == old {
		return
	}
	s.pointerWin = newWin
	if old != nil && s.window(old.id) == old {
		ax, ay := s.absPos(old)
		ev := &xproto.Event{
			Type: xproto.LeaveNotify, Window: old.id,
			X: int16(s.pointerX - ax), Y: int16(s.pointerY - ay),
			RootX: int16(s.pointerX), RootY: int16(s.pointerY),
			State: s.buttons | s.modifiers, Time: s.now(),
		}
		s.broadcast(old, ev, xproto.LeaveWindowMask)
	}
	if newWin != nil {
		ax, ay := s.absPos(newWin)
		ev := &xproto.Event{
			Type: xproto.EnterNotify, Window: newWin.id,
			X: int16(s.pointerX - ax), Y: int16(s.pointerY - ay),
			RootX: int16(s.pointerX), RootY: int16(s.pointerY),
			State: s.buttons | s.modifiers, Time: s.now(),
		}
		s.broadcast(newWin, ev, xproto.EnterWindowMask)
	}
}

// handleFakeInput injects synthetic user input (the simulator's XTEST). Called with s.mu held.
func (s *Server) handleFakeInput(q *xproto.FakeInputReq) {
	switch q.Kind {
	case xproto.FakeMotion:
		s.pointerX, s.pointerY = int(q.X), int(q.Y)
		s.refreshPointerWindow()
		target := s.pointerWin
		if s.grabWin != nil {
			target = s.grabWin
		}
		if target == nil {
			return
		}
		ev := &xproto.Event{
			Type:  xproto.MotionNotify,
			RootX: int16(s.pointerX), RootY: int16(s.pointerY),
			State: s.buttons | s.modifiers, Time: s.now(),
		}
		mask := xproto.PointerMotionMask
		if s.buttons != 0 {
			mask |= xproto.ButtonMotionMask
		}
		if s.grabWin != nil {
			ax, ay := s.absPos(s.grabWin)
			ev.Window = s.grabWin.id
			ev.X = int16(s.pointerX - ax)
			ev.Y = int16(s.pointerY - ay)
			s.broadcast(s.grabWin, ev, mask)
		} else {
			s.deliverDevice(target, ev, mask)
		}
	case xproto.FakeButtonPress:
		before := s.buttons
		s.buttons |= xproto.ButtonMask(int(q.Detail))
		ev := &xproto.Event{
			Type: xproto.ButtonPress, Detail: q.Detail,
			RootX: int16(s.pointerX), RootY: int16(s.pointerY),
			State: before | s.modifiers, Time: s.now(),
		}
		target := s.pointerWin
		if s.grabWin != nil {
			target = s.grabWin
		}
		if target == nil {
			return
		}
		if s.grabWin == nil {
			// Implicit grab: subsequent pointer events go to this window
			// until all buttons are released.
			s.grabWin = s.deliverTargetFor(target, xproto.ButtonPressMask)
			if s.grabWin == nil {
				s.grabWin = target
			}
		}
		ax, ay := s.absPos(s.grabWin)
		ev.Window = s.grabWin.id
		ev.X = int16(s.pointerX - ax)
		ev.Y = int16(s.pointerY - ay)
		if !s.broadcast(s.grabWin, ev, xproto.ButtonPressMask) {
			s.deliverDevice(target, ev, xproto.ButtonPressMask)
		}
	case xproto.FakeButtonRelease:
		before := s.buttons
		s.buttons &^= xproto.ButtonMask(int(q.Detail))
		ev := &xproto.Event{
			Type: xproto.ButtonRelease, Detail: q.Detail,
			RootX: int16(s.pointerX), RootY: int16(s.pointerY),
			State: before | s.modifiers, Time: s.now(),
		}
		target := s.pointerWin
		if s.grabWin != nil {
			target = s.grabWin
			ax, ay := s.absPos(target)
			ev.Window = target.id
			ev.X = int16(s.pointerX - ax)
			ev.Y = int16(s.pointerY - ay)
			s.broadcast(target, ev, xproto.ButtonReleaseMask)
		} else if target != nil {
			s.deliverDevice(target, ev, xproto.ButtonReleaseMask)
		}
		if s.buttons == 0 {
			s.grabWin = nil
			s.refreshPointerWindow()
		}
	case xproto.FakeKeyPress, xproto.FakeKeyRelease:
		ks := xproto.Keysym(q.Detail)
		typ := uint8(xproto.KeyPress)
		mask := xproto.KeyPressMask
		if q.Kind == xproto.FakeKeyRelease {
			typ = xproto.KeyRelease
			mask = xproto.KeyReleaseMask
		}
		state := s.buttons | s.modifiers
		if mod := xproto.KeysymModifier(ks); mod != 0 {
			if q.Kind == xproto.FakeKeyPress {
				s.modifiers |= mod
			} else {
				s.modifiers &^= mod
			}
		}
		ev := &xproto.Event{
			Type: typ, Detail: q.Detail, Keysym: ks,
			RootX: int16(s.pointerX), RootY: int16(s.pointerY),
			State: state, Time: s.now(),
		}
		target := s.keyTarget()
		if target != nil {
			s.deliverDevice(target, ev, mask)
		}
	}
}

// keyTarget determines which window receives keyboard input: the focus
// window when one is set, otherwise the window under the pointer
// (PointerRoot focus mode). Called with s.mu held.
func (s *Server) keyTarget() *window {
	if s.focus != xproto.None && s.focus != s.Root() {
		if w := s.window(s.focus); w != nil {
			return w
		}
	}
	return s.pointerWin
}

// deliverTargetFor walks up from w to the nearest window where some
// client selected mask, without delivering. Called with s.mu held.
func (s *Server) deliverTargetFor(w *window, mask uint32) *window {
	for x := w; x != nil; x = x.parent {
		for _, m := range x.masks {
			if m&mask != 0 {
				return x
			}
		}
	}
	return nil
}
