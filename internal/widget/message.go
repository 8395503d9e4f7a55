package widget

import (
	"fmt"
	"strings"

	"repro/internal/tcl"
	"repro/internal/tk"
)

// Message implements the Message class: a multi-line text display that
// wraps its string to honour an aspect ratio or a fixed width.
type Message struct {
	base
	lines []string
}

// messageSpecs is the Message option table, built once on first use.
var messageSpecs = optionTable{build: func() []tk.OptionSpec {
	specs := standardSpecs(DefBackground)
	return append(specs,
		tk.OptionSpec{Name: "-text", DBName: "text", DBClass: "Text", Default: ""},
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "0"},
		tk.OptionSpec{Name: "-aspect", DBName: "aspect", DBClass: "Aspect", Default: "150"},
		tk.OptionSpec{Name: "-justify", DBName: "justify", DBClass: "Justify", Default: "left"},
		tk.OptionSpec{Name: "-padx", DBName: "padX", DBClass: "Pad", Default: "4"},
		tk.OptionSpec{Name: "-pady", DBName: "padY", DBClass: "Pad", Default: "2"},
	)
}}

func registerMessage(app *tk.App) {
	app.Interp.Register("message", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "message pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Message", messageSpecs.get(), false)
		if err != nil {
			return "", err
		}
		m := &Message{base: *b}
		m.win.Widget = m
		m.geomAndExposure()
		return m.install(m, args[2:])
	})
}

// wrap breaks text into lines no wider than maxWidth pixels, honouring
// embedded newlines and breaking at spaces.
func (m *Message) wrap(text string, maxWidth int) []string {
	var out []string
	for _, para := range strings.Split(text, "\n") {
		if para == "" {
			out = append(out, "")
			continue
		}
		words := strings.Fields(para)
		cur := ""
		for _, w := range words {
			candidate := cur
			if candidate != "" {
				candidate += " "
			}
			candidate += w
			if cur != "" && m.font.TextWidth(candidate) > maxWidth {
				out = append(out, cur)
				cur = w
				continue
			}
			cur = candidate
		}
		out = append(out, cur)
	}
	return out
}

// recompute implements subcommander: choose a width (fixed or from the
// aspect ratio), wrap, and request space.
func (m *Message) recompute() error {
	if err := m.resolve(); err != nil {
		return err
	}
	text := m.cv.Get("-text")
	padX := m.cv.GetInt("-padx", 4)
	padY := m.cv.GetInt("-pady", 2)
	bd := m.cv.GetInt("-borderwidth", 2)
	width := m.cv.GetInt("-width", 0)
	if width <= 0 {
		// Pick a width that roughly honours aspect = 100*w/h.
		aspect := m.cv.GetInt("-aspect", 150)
		if aspect < 1 {
			aspect = 150
		}
		lower, upper := 1, m.font.TextWidth(text)+1
		for lower < upper {
			mid := (lower + upper) / 2
			lines := m.wrap(text, mid)
			h := len(lines) * m.font.LineHeight()
			if h == 0 {
				h = m.font.LineHeight()
			}
			if mid*100 >= aspect*h {
				upper = mid
			} else {
				lower = mid + 1
			}
		}
		width = lower
	}
	m.lines = m.wrap(text, width)
	maxW := 0
	for _, l := range m.lines {
		if w := m.font.TextWidth(l); w > maxW {
			maxW = w
		}
	}
	h := len(m.lines) * m.font.LineHeight()
	m.win.GeometryRequest(maxW+2*padX+2*bd, h+2*padY+2*bd)
	m.win.ScheduleRedraw()
	return nil
}

// widgetCommand implements subcommander.
func (m *Message) widgetCommand(sub string, args []string) (string, error) {
	return "", fmt.Errorf("bad option %q: must be configure", sub)
}

// Redraw implements tk.Widget.
func (m *Message) Redraw() {
	if m.win.Destroyed {
		return
	}
	m.clear(m.bg)
	bd := m.cv.GetInt("-borderwidth", 2)
	padX := m.cv.GetInt("-padx", 4)
	padY := m.cv.GetInt("-pady", 2)
	m.draw3DBorder(0, 0, m.win.Width, m.win.Height, bd, m.bg, m.cv.Get("-relief"))
	gc := m.app.GC(m.fg, m.bg, 1, m.fontID())
	justify := m.cv.Get("-justify")
	innerW := m.win.Width - 2*bd - 2*padX
	y := bd + padY + m.font.Ascent
	for _, line := range m.lines {
		x := bd + padX
		switch justify {
		case "center":
			x += (innerW - m.font.TextWidth(line)) / 2
		case "right":
			x += innerW - m.font.TextWidth(line)
		}
		m.app.Disp.DrawString(m.win.XID, gc, x, y, line)
		y += m.font.LineHeight()
	}
}
