package tk

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tcl"
)

// The packer (§3.4) arranges slave windows around the edges of a cavity
// inside their parent: each slave is allocated a frame against one side
// (top/bottom/left/right) of the remaining cavity, may expand to claim
// leftover space, and may fill its frame in either dimension. The
// algorithm follows the classic Tk packer. The Tcl syntax is the old
// (Tk 1.0/paper-era) form used in Figure 9:
//
//	pack append .x .x.a {top} .x.b {top} .x.c {top}
//	pack append . .scroll {right filly} .list {left expand fill}
//
// plus the query commands "pack info", "pack slaves" and removal with
// "pack unpack"/"pack forget".

// Sides.
const (
	sideTop = iota
	sideBottom
	sideLeft
	sideRight
)

type packSlave struct {
	win    *Window
	side   int
	expand bool
	fillX  bool
	fillY  bool
	padX   int
	padY   int
	anchor string // "center", "n", "s", "e", "w", "ne", ...
}

// Packer is the built-in geometry manager.
type Packer struct {
	app     *App
	masters map[*Window][]*packSlave
	pending map[*Window]bool
	// propagate controls whether masters resize to fit their slaves.
	noPropagate map[*Window]bool
}

func newPacker(app *App) *Packer {
	return &Packer{
		app:         app,
		masters:     make(map[*Window][]*packSlave),
		pending:     make(map[*Window]bool),
		noPropagate: make(map[*Window]bool),
	}
}

// row returns the pack command's row, its procedures bound to p.
func (p *Packer) row() tcl.Row {
	return tcl.Row{Name: "pack", Min: 1, Max: -1, Usage: "option arg ?arg ...?", Subs: []tcl.Row{
		{Name: "after", Fn: p.packBeside, Min: 2, Max: -1, Usage: "sibling window options ?window options ...?"},
		{Name: "append", Fn: p.packAppend, Min: 2, Max: -1, Usage: "parent window options ?window options ...?"},
		{Name: "before", Fn: p.packBeside, Min: 2, Max: -1, Usage: "sibling window options ?window options ...?"},
		{Name: "forget", Fn: p.packForget, Min: 1, Max: 1, Usage: "window"},
		{Name: "info", Fn: p.packInfo, Min: 1, Max: 1, Usage: "parent"},
		{Name: "propagate", Fn: p.packPropagate, Min: 1, Max: 2, Usage: "parent ?boolean?"},
		{Name: "slaves", Fn: p.packSlaves, Min: 1, Max: 1, Usage: "parent"},
		{Name: "unpack", Fn: p.packForget, Min: 1, Max: 1, Usage: "window"},
	}}
}

// packerFor returns the packer if it manages slaves inside w.
func (app *App) packerFor(w *Window) *Packer {
	if app.packer != nil && len(app.packer.masters[w]) > 0 {
		return app.packer
	}
	return nil
}

// Name implements GeometryManager.
func (p *Packer) Name() string { return "pack" }

// SlaveRequest implements GeometryManager: a slave wants a new size.
func (p *Packer) SlaveRequest(slave *Window) {
	if slave.Parent != nil {
		p.scheduleRepack(slave.Parent)
	}
}

// LostSlave implements GeometryManager.
func (p *Packer) LostSlave(slave *Window) {
	master := slave.Parent
	if master == nil {
		return
	}
	slaves := p.masters[master]
	for i, s := range slaves {
		if s.win == slave {
			p.masters[master] = append(slaves[:i], slaves[i+1:]...)
			break
		}
	}
	if len(p.masters[master]) == 0 {
		delete(p.masters, master)
	} else {
		p.scheduleRepack(master)
	}
}

// forgetMaster drops all packing state for a destroyed master.
func (p *Packer) forgetMaster(master *Window) {
	delete(p.masters, master)
	delete(p.pending, master)
	delete(p.noPropagate, master)
}

// scheduleRepack arranges for master's slaves to be re-laid-out at idle
// time.
func (p *Packer) scheduleRepack(master *Window) {
	if p.pending[master] || master.Destroyed {
		return
	}
	p.pending[master] = true
	p.app.DoWhenIdle(func() {
		delete(p.pending, master)
		if !master.Destroyed {
			p.arrange(master)
		}
	})
}

// parseOptions parses the old-style option list for one slave.
func parseOptions(spec string) (*packSlave, error) {
	s := &packSlave{side: sideTop, anchor: "center"}
	opts, err := tcl.ParseList(spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(opts); i++ {
		switch opt := opts[i]; opt {
		case "top":
			s.side = sideTop
		case "bottom":
			s.side = sideBottom
		case "left":
			s.side = sideLeft
		case "right":
			s.side = sideRight
		case "expand", "e":
			s.expand = true
		case "fill":
			s.fillX, s.fillY = true, true
		case "fillx":
			s.fillX = true
		case "filly":
			s.fillY = true
		case "padx":
			if i+1 >= len(opts) {
				return nil, fmt.Errorf("padx needs a value")
			}
			i++
			n, err := strconv.Atoi(opts[i])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad padx value %q", opts[i])
			}
			s.padX = n
		case "pady":
			if i+1 >= len(opts) {
				return nil, fmt.Errorf("pady needs a value")
			}
			i++
			n, err := strconv.Atoi(opts[i])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad pady value %q", opts[i])
			}
			s.padY = n
		case "frame":
			if i+1 >= len(opts) {
				return nil, fmt.Errorf("frame needs an anchor value")
			}
			i++
			s.anchor = strings.ToLower(opts[i])
		default:
			return nil, fmt.Errorf("bad pack option %q: should be top, bottom, left, right, expand, fill, fillx, filly, padx, pady, or frame", opt)
		}
	}
	return s, nil
}

// optionString renders a slave's options back to the old syntax (for
// pack info).
func (s *packSlave) optionString() string {
	var parts []string
	switch s.side {
	case sideTop:
		parts = append(parts, "top")
	case sideBottom:
		parts = append(parts, "bottom")
	case sideLeft:
		parts = append(parts, "left")
	case sideRight:
		parts = append(parts, "right")
	}
	if s.expand {
		parts = append(parts, "expand")
	}
	switch {
	case s.fillX && s.fillY:
		parts = append(parts, "fill")
	case s.fillX:
		parts = append(parts, "fillx")
	case s.fillY:
		parts = append(parts, "filly")
	}
	if s.padX != 0 {
		parts = append(parts, "padx", strconv.Itoa(s.padX))
	}
	if s.padY != 0 {
		parts = append(parts, "pady", strconv.Itoa(s.padY))
	}
	if s.anchor != "center" {
		parts = append(parts, "frame", s.anchor)
	}
	return strings.Join(parts, " ")
}

func (p *Packer) packAppend(_ *tcl.Interp, args []string) (string, error) {
	master, err := p.app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	rest := args[3:]
	if len(rest)%2 != 0 {
		return "", fmt.Errorf("each window must be followed by an option list")
	}
	for i := 0; i < len(rest); i += 2 {
		win, err := p.app.NameToWindow(rest[i])
		if err != nil {
			return "", err
		}
		if win.Parent != master {
			return "", fmt.Errorf("can't pack %s inside %s: not its parent", rest[i], args[2])
		}
		slave, err := parseOptions(rest[i+1])
		if err != nil {
			return "", err
		}
		slave.win = win
		p.addSlave(master, slave)
	}
	return "", nil
}

// packBeside implements the old-style ordering of "pack before" and
// "pack after": it inserts windows into the sibling's master relative
// to the already-packed sibling.
func (p *Packer) packBeside(_ *tcl.Interp, args []string) (string, error) {
	sibling, err := p.app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	master := sibling.Parent
	if master == nil || sibling.Manager != p {
		return "", fmt.Errorf("window %q isn't packed", args[2])
	}
	pos := -1
	for i, s := range p.masters[master] {
		if s.win == sibling {
			pos = i
			break
		}
	}
	if pos < 0 {
		return "", fmt.Errorf("window %q isn't packed", args[2])
	}
	if args[1] == "after" {
		pos++
	}
	rest := args[3:]
	if len(rest)%2 != 0 {
		return "", fmt.Errorf("each window must be followed by an option list")
	}
	for i := 0; i < len(rest); i += 2 {
		win, err := p.app.NameToWindow(rest[i])
		if err != nil {
			return "", err
		}
		if win.Parent != master {
			return "", fmt.Errorf("can't pack %s inside %s: not its parent", rest[i], master.Path)
		}
		slave, err := parseOptions(rest[i+1])
		if err != nil {
			return "", err
		}
		slave.win = win
		p.insertSlave(master, slave, pos)
		pos++
	}
	return "", nil
}

// packForget implements "pack forget" and its old name "pack unpack".
func (p *Packer) packForget(_ *tcl.Interp, args []string) (string, error) {
	win, err := p.app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	if win.Manager == p {
		win.Manager = nil
		p.LostSlave(win)
		win.Unmap()
	}
	return "", nil
}

func (p *Packer) packInfo(_ *tcl.Interp, args []string) (string, error) {
	master, err := p.app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	var out []string
	for _, s := range p.masters[master] {
		out = append(out, s.win.Path, s.optionString())
	}
	return tcl.FormatList(out), nil
}

func (p *Packer) packSlaves(_ *tcl.Interp, args []string) (string, error) {
	master, err := p.app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	var out []string
	for _, s := range p.masters[master] {
		out = append(out, s.win.Path)
	}
	return tcl.FormatList(out), nil
}

func (p *Packer) packPropagate(in *tcl.Interp, args []string) (string, error) {
	master, err := p.app.NameToWindow(args[2])
	if err != nil {
		return "", err
	}
	if len(args) == 3 {
		if p.noPropagate[master] {
			return "0", nil
		}
		return "1", nil
	}
	on, err := in.EvalBool(args[3])
	if err != nil {
		return "", err
	}
	p.noPropagate[master] = !on
	if on {
		p.scheduleRepack(master)
	}
	return "", nil
}

// insertSlave places a slave at a specific position in the packing
// order (for pack before/after).
func (p *Packer) insertSlave(master *Window, slave *packSlave, pos int) {
	if slave.win.Manager != nil && slave.win.Manager != p {
		slave.win.Manager.LostSlave(slave.win)
	}
	slaves := p.masters[master]
	// Remove an existing entry for the same window first.
	for i, s := range slaves {
		if s.win == slave.win {
			slaves = append(slaves[:i], slaves[i+1:]...)
			if i < pos {
				pos--
			}
			break
		}
	}
	if pos < 0 {
		pos = 0
	}
	if pos > len(slaves) {
		pos = len(slaves)
	}
	slaves = append(slaves[:pos], append([]*packSlave{slave}, slaves[pos:]...)...)
	p.masters[master] = slaves
	slave.win.Manager = p
	p.scheduleRepack(master)
}

// addSlave registers (or re-registers) a slave with its master.
func (p *Packer) addSlave(master *Window, slave *packSlave) {
	// Steal from a previous manager (only one manages a window, §3.4).
	if slave.win.Manager != nil && slave.win.Manager != p {
		slave.win.Manager.LostSlave(slave.win)
	}
	// Replace an existing entry for the same window.
	slaves := p.masters[master]
	for i, s := range slaves {
		if s.win == slave.win {
			slaves[i] = slave
			slave.win.Manager = p
			p.scheduleRepack(master)
			return
		}
	}
	p.masters[master] = append(slaves, slave)
	slave.win.Manager = p
	p.scheduleRepack(master)
}

// Pack provides the Go-level API used by widgets and tests.
func (p *Packer) Pack(master, win *Window, options string) error {
	slave, err := parseOptions(options)
	if err != nil {
		return err
	}
	slave.win = win
	p.addSlave(master, slave)
	return nil
}

// xExpansion computes how much extra horizontal space a left/right slave
// may claim: the leftover cavity width divided among remaining expanding
// slaves (classic tkPack.c XExpansion).
func xExpansion(slaves []*packSlave, idx int, cavityWidth int) int {
	minExpand := cavityWidth
	numExpand := 0
	for i := idx; i < len(slaves); i++ {
		s := slaves[i]
		childWidth := s.win.ReqWidth + 2*s.padX
		if s.side == sideTop || s.side == sideBottom {
			if numExpand > 0 {
				cur := (cavityWidth - childWidth) / numExpand
				if cur < minExpand {
					minExpand = cur
				}
			}
		} else {
			cavityWidth -= childWidth
			if s.expand {
				numExpand++
			}
		}
	}
	if numExpand > 0 {
		cur := cavityWidth / numExpand
		if cur < minExpand {
			minExpand = cur
		}
	} else {
		minExpand = 0
	}
	if minExpand < 0 {
		return 0
	}
	return minExpand
}

// yExpansion is the vertical analogue.
func yExpansion(slaves []*packSlave, idx int, cavityHeight int) int {
	minExpand := cavityHeight
	numExpand := 0
	for i := idx; i < len(slaves); i++ {
		s := slaves[i]
		childHeight := s.win.ReqHeight + 2*s.padY
		if s.side == sideLeft || s.side == sideRight {
			if numExpand > 0 {
				cur := (cavityHeight - childHeight) / numExpand
				if cur < minExpand {
					minExpand = cur
				}
			}
		} else {
			cavityHeight -= childHeight
			if s.expand {
				numExpand++
			}
		}
	}
	if numExpand > 0 {
		cur := cavityHeight / numExpand
		if cur < minExpand {
			minExpand = cur
		}
	} else {
		minExpand = 0
	}
	if minExpand < 0 {
		return 0
	}
	return minExpand
}

// arrange lays out master's slaves (classic ArrangePacking) and, unless
// propagation is off, requests that the master grow to fit them.
func (p *Packer) arrange(master *Window) {
	slaves := p.masters[master]
	if len(slaves) == 0 {
		return
	}
	ib := master.InternalBorder
	if !p.noPropagate[master] {
		reqW, reqH := p.requiredSize(slaves)
		master.GeometryRequest(reqW+2*ib, reqH+2*ib)
		// For managed masters the request propagates upward; for
		// top-levels it resizes the window immediately, so re-read the
		// actual size below.
	}
	cavityX, cavityY := ib, ib
	cavityWidth := master.Width - 2*ib
	cavityHeight := master.Height - 2*ib
	for i, s := range slaves {
		var frameX, frameY, frameW, frameH int
		if s.side == sideTop || s.side == sideBottom {
			frameW = cavityWidth
			frameH = s.win.ReqHeight + 2*s.padY
			if s.expand {
				frameH += yExpansion(slaves, i, cavityHeight)
			}
			cavityHeight -= frameH
			if cavityHeight < 0 {
				frameH += cavityHeight
				cavityHeight = 0
			}
			frameX = cavityX
			if s.side == sideTop {
				frameY = cavityY
				cavityY += frameH
			} else {
				frameY = cavityY + cavityHeight
			}
		} else {
			frameH = cavityHeight
			frameW = s.win.ReqWidth + 2*s.padX
			if s.expand {
				frameW += xExpansion(slaves, i, cavityWidth)
			}
			cavityWidth -= frameW
			if cavityWidth < 0 {
				frameW += cavityWidth
				cavityWidth = 0
			}
			frameY = cavityY
			if s.side == sideLeft {
				frameX = cavityX
				cavityX += frameW
			} else {
				frameX = cavityX + cavityWidth
			}
		}

		// Size within the frame: requested size, or fill.
		w := s.win.ReqWidth
		h := s.win.ReqHeight
		if s.fillX || w > frameW-2*s.padX {
			w = frameW - 2*s.padX
		}
		if s.fillY || h > frameH-2*s.padY {
			h = frameH - 2*s.padY
		}
		if w < 1 || h < 1 {
			// The cavity is exhausted: no space for this slave. Unmap it
			// rather than placing a degenerate window outside the master
			// (as Tk does).
			s.win.Unmap()
			continue
		}
		// Position within the frame per the anchor.
		x := frameX + (frameW-w)/2
		y := frameY + (frameH-h)/2
		if strings.Contains(s.anchor, "n") {
			y = frameY + s.padY
		}
		if strings.Contains(s.anchor, "s") {
			y = frameY + frameH - h - s.padY
		}
		if strings.Contains(s.anchor, "w") {
			x = frameX + s.padX
		}
		if strings.Contains(s.anchor, "e") {
			x = frameX + frameW - w - s.padX
		}
		p.app.resizeWindow(s.win, x, y, w, h, true)
		s.win.Map()
	}
}

// requiredSize computes the size the master needs to satisfy all slaves'
// requests (geometry propagation).
func (p *Packer) requiredSize(slaves []*packSlave) (int, int) {
	width, height := 0, 0
	maxW, maxH := 0, 0
	// Walk backwards: a slave packed earlier wraps around everything
	// packed after it (classic packer request computation).
	for i := len(slaves) - 1; i >= 0; i-- {
		s := slaves[i]
		cw := s.win.ReqWidth + 2*s.padX
		ch := s.win.ReqHeight + 2*s.padY
		if s.side == sideTop || s.side == sideBottom {
			if cw+width > maxW {
				maxW = cw + width
			}
			height += ch
		} else {
			if ch+height > maxH {
				maxH = ch + height
			}
			width += cw
		}
	}
	if width > maxW {
		maxW = width
	}
	if height > maxH {
		maxH = height
	}
	return maxW, maxH
}
