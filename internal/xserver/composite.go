package xserver

import (
	"time"

	"repro/internal/xproto"
)

// Title-bar geometry for the server's trivial built-in window manager
// decoration, standing in for twm in the paper's Figure 10.
const (
	titleBarHeight = 18
	titleBarColor  = 0x6a5acd
	titleTextColor = 0xffffff
	frameColor     = 0x000000
)

// compOp is one step of a composite plan: a paint operation recorded
// under s.mu and replayed outside it. Blits reference copy-on-write
// snapshots of window images, so replaying never reads mutable tree
// state.
type compOp struct {
	kind       compOpKind
	x, y, w, h int
	lw         int
	pixel      uint32
	src        *image // opBlit: a snapshot, safe to read with no lock
	text       string
}

type compOpKind uint8

const (
	opFill compOpKind = iota
	opFrame
	opBlit
	opText
)

// compositePlan appends the paint operations for w and its mapped
// descendants, with w's content origin at (ox, oy), in exactly the
// order composite used to paint them: border, content, children
// bottom-to-top, then the window-manager decoration for top-level
// windows. Called with s.mu held; the returned ops own snapshots and
// copied strings, nothing aliasing the tree.
func (s *Server) compositePlan(ops []compOp, w *window, ox, oy int) []compOp {
	// Border.
	if w.borderWidth > 0 {
		bw := w.borderWidth
		ops = append(ops,
			compOp{kind: opFill, x: ox - bw, y: oy - bw, w: w.w + 2*bw, h: bw, pixel: w.border},
			compOp{kind: opFill, x: ox - bw, y: oy + w.h, w: w.w + 2*bw, h: bw, pixel: w.border},
			compOp{kind: opFill, x: ox - bw, y: oy, w: bw, h: w.h, pixel: w.border},
			compOp{kind: opFill, x: ox + w.w, y: oy, w: bw, h: w.h, pixel: w.border},
		)
	}
	// Content.
	ops = append(ops, compOp{kind: opBlit, src: w.img.snapshot(), x: ox, y: oy, w: w.w, h: w.h})
	// Children bottom-to-top.
	for _, ch := range w.children {
		if !ch.mapped {
			continue
		}
		ops = s.compositePlan(ops, ch, ox+ch.x+ch.borderWidth, oy+ch.y+ch.borderWidth)
	}
	// Window-manager decoration for top-level windows: a title bar above
	// the window showing WM_NAME, like twm in Figure 10 of the paper.
	if w.parent == s.root && !w.override {
		title := ""
		if p, ok := w.props[xproto.AtomWMName]; ok {
			title = string(p.data)
		}
		bw := w.borderWidth
		ops = append(ops,
			compOp{kind: opFill, x: ox - bw, y: oy - bw - titleBarHeight, w: w.w + 2*bw, h: titleBarHeight, pixel: titleBarColor},
			compOp{kind: opFrame, x: ox - bw, y: oy - bw - titleBarHeight, w: w.w + 2*bw, h: titleBarHeight, lw: 1, pixel: frameColor},
			compOp{kind: opText, x: ox + 4, y: oy - bw - titleBarHeight + 13, text: title, pixel: titleTextColor},
		)
	}
	return ops
}

// renderPlan replays a composite plan into dst. Needs no lock: fills
// and frames are pure geometry, blits read immutable snapshots, and the
// title font is stateless.
func renderPlan(dst *image, ops []compOp) {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opFill:
			dst.fillRect(op.x, op.y, op.w, op.h, op.pixel)
		case opFrame:
			dst.drawRect(op.x, op.y, op.w, op.h, op.lw, op.pixel)
		case opBlit:
			dst.copyFrom(op.src, 0, 0, op.x, op.y, op.w, op.h)
		case opText:
			openFont("fixed").drawString(dst, op.x, op.y, op.text, op.pixel)
		}
	}
}

// screenshot is a Screenshot request's plan: the composited size and
// the paint operations that compose it.
type screenshot struct {
	w, h int
	ops  []compOp
}

// planScreenshot plans the composited screen (or one window's subtree):
// a walk of the tree recording geometry and copy-on-write tile
// snapshots (pointer grabs, no pixel copies). It returns nil after
// reporting a bad window. Called with s.mu held; dispatch runs the
// expensive part, reply, after releasing it, so observers taking
// screenshots never stall painters for longer than the snapshot walk.
func (s *Server) planScreenshot(c *conn, q *xproto.ScreenshotReq) *screenshot {
	if q.Window == xproto.None || q.Window == s.Root() {
		shot := &screenshot{w: s.width, h: s.height}
		shot.ops = append(shot.ops,
			compOp{kind: opFill, x: 0, y: 0, w: s.width, h: s.height, pixel: s.root.background},
			compOp{kind: opBlit, src: s.root.img.snapshot(), x: 0, y: 0, w: s.width, h: s.height})
		for _, ch := range s.root.children {
			if ch.mapped {
				shot.ops = s.compositePlan(shot.ops, ch, ch.x+ch.borderWidth, ch.y+ch.borderWidth)
			}
		}
		return shot
	}
	w := s.window(q.Window)
	if w == nil {
		c.protoError("Screenshot: bad window %d", q.Window)
		return nil
	}
	bw := w.borderWidth
	dh := decorationHeight(s, w)
	return &screenshot{w: w.w + 2*bw, h: w.h + 2*bw + dh, ops: s.compositePlan(nil, w, bw, bw+dh)}
}

// reply composes the plan into a fresh image with no lock held, then
// replies with its packed RGB pixels. The packing runs inside the
// reply's encode function, so under c's outMu.
func (shot *screenshot) reply(c *conn) {
	begin := time.Now()
	im := newImage(shot.w, shot.h)
	renderPlan(im, shot.ops)
	c.reply(func(w *xproto.Writer) {
		// Pack pixels straight into the reply payload: exactly w*h*3
		// bytes, indexed directly, no intermediate slice.
		dst := xproto.AppendScreenshotPixels(w, uint16(im.w), uint16(im.h), im.w*im.h*3)
		im.packRGB(dst)
	})
	c.s.render.screenshot.Observe(time.Since(begin))
}

func decorationHeight(s *Server, w *window) int {
	if w.parent == s.root && !w.override {
		return titleBarHeight
	}
	return 0
}
