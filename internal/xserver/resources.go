package xserver

import "repro/internal/xproto"

// The resource table. One map, Server.res, holds every window, pixmap,
// GC, font and cursor by ID, as X's resource database does. Each
// connection names its resources from its own range of IDs, the
// xproto.IDRange-aligned block whose base its setup block sent: a create
// request whose ID lies outside that range, or names a live resource,
// is refused with BadIDChoice (legalNewID), and a departing client's
// whole range is freed at once (cleanupConn), after which its block
// goes to the next client that connects (takeIDBase).

// owns reports whether id lies in c's range of resource IDs.
func (c *conn) owns(id xproto.ID) bool { return uint32(id)&^(xproto.IDRange-1) == c.idBase }

// takeIDBase picks the block of resource IDs for a new connection: a
// departed client's, if there is one, as X hands a departed client's
// slot to the next, else the next fresh block. Block 0 holds None and
// the root window, so it is never handed out, and the fresh blocks run
// out when nextIDBase wraps to it: with every block in use, ok is false
// and the connection is refused. Called with s.mu held.
func (s *Server) takeIDBase() (base uint32, ok bool) {
	if n := len(s.freeBases); n > 0 {
		base = s.freeBases[n-1]
		s.freeBases = s.freeBases[:n-1]
		return base, true
	}
	if s.nextIDBase == 0 {
		return 0, false
	}
	base = s.nextIDBase
	s.nextIDBase += xproto.IDRange
	return base, true
}

// window returns the window id names, or nil. Called with s.mu held.
func (s *Server) window(id xproto.ID) *window {
	w, _ := s.res[id].(*window)
	return w
}

// pixmap returns the pixmap id names, or nil. Called with s.mu held.
func (s *Server) pixmap(id xproto.ID) *pixmap {
	p, _ := s.res[id].(*pixmap)
	return p
}

// gc returns the graphics context id names, or nil. Called with s.mu
// held.
func (s *Server) gc(id xproto.ID) *gcontext {
	gc, _ := s.res[id].(*gcontext)
	return gc
}

// font returns the font id names, or nil. Called with s.mu held.
func (s *Server) font(id xproto.ID) *font {
	f, _ := s.res[id].(*font)
	return f
}

// cursor returns the cursor id names, or nil. Called with s.mu held.
func (s *Server) cursor(id xproto.ID) *cursor {
	cur, _ := s.res[id].(*cursor)
	return cur
}

// drawable returns the pixels of pixmap or window id, or nil if it is
// neither. Called with s.mu held.
func (s *Server) drawable(id xproto.ID) *image {
	switch r := s.res[id].(type) {
	case *pixmap:
		return r.img
	case *window:
		return r.img
	}
	return nil
}

// legalNewID reports whether c may create a resource named id, as X's
// LegalNewID decides: id lies in c's range and names no live resource.
// Otherwise it sends c a BadIDChoice error for the request req, which
// then changes nothing. Called with s.mu held.
func (s *Server) legalNewID(c *conn, id xproto.ID, req string) bool {
	if c.owns(id) && s.res[id] == nil {
		return true
	}
	c.protoError("%s: BadIDChoice: resource ID %#x is not free in this client's range", req, uint32(id))
	return false
}

// free removes resource id from the table and returns its quota. A
// window goes with its subtree (destroyWindow); a window's or pixmap's
// slabs go back to slabPools. An ID that names nothing, or the root
// window, is ignored. Called with s.mu held.
func (s *Server) free(id xproto.ID) {
	switch r := s.res[id].(type) {
	case *window:
		if r != s.root {
			s.destroyWindow(r)
		}
		return
	case *pixmap:
		r.img.release()
		s.usedPixmapBytes -= r.bytes
	case *gcontext:
		s.usedGCs--
	}
	delete(s.res, id)
}

// cleanupConn frees everything in a departed client's range, as X's
// FreeClientResources does, removes its event-mask entries and hands its
// block of IDs back for the next client. Its windows are destroyed, so
// their selections go with them. Every free returns its quota
// reservation, so after the last connection of a session disconnects
// QuotaUsage reports zero across the board — the reconciliation
// invariant the farm bench asserts on teardown.
func (s *Server) cleanupConn(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	// Collect first, free second: destroying a window takes its subtree
	// out of the table, so freeing while ranging over the map would
	// visit it mid-mutation. Top-level windows go first (X semantics:
	// the visible tree comes down before windows nested in other
	// clients' trees); free ignores an ID an earlier free already took.
	var top, rest []xproto.ID
	for id, r := range s.res {
		if !c.owns(id) {
			continue
		}
		if w, ok := r.(*window); ok && w.parent == s.root {
			top = append(top, id)
		} else {
			rest = append(rest, id)
		}
	}
	for _, id := range append(top, rest...) {
		s.free(id)
	}
	for _, r := range s.res {
		if w, ok := r.(*window); ok {
			delete(w.masks, c)
		}
	}
	s.freeBases = append(s.freeBases, c.idBase)
}
