package xserver

import (
	"strconv"
	"strings"
)

// namedColors is the server's color database, the analogue of X11's
// rgb.txt. Names are matched case- and space-insensitively, as X does.
// The set covers the colors the paper and Motif-era defaults use
// (MediumSeaGreen for Tk's cache example, Bisque for Motif backgrounds,
// PalePink1 from the paper's configure example) plus the common basics.
var namedColors = map[string]uint32{
	"white":          0xffffff,
	"black":          0x000000,
	"red":            0xff0000,
	"green":          0x00ff00,
	"blue":           0x0000ff,
	"yellow":         0xffff00,
	"cyan":           0x00ffff,
	"magenta":        0xff00ff,
	"gray":           0xbebebe,
	"grey":           0xbebebe,
	"darkgray":       0xa9a9a9,
	"darkgrey":       0xa9a9a9,
	"lightgray":      0xd3d3d3,
	"lightgrey":      0xd3d3d3,
	"gray25":         0x404040,
	"gray50":         0x7f7f7f,
	"gray75":         0xbfbfbf,
	"gray85":         0xd9d9d9,
	"gray90":         0xe5e5e5,
	"gray95":         0xf2f2f2,
	"dimgray":        0x696969,
	"slategray":      0x708090,
	"navy":           0x000080,
	"navyblue":       0x000080,
	"royalblue":      0x4169e1,
	"steelblue":      0x4682b4,
	"lightsteelblue": 0xb0c4de,
	"skyblue":        0x87ceeb,
	"lightblue":      0xadd8e6,
	"cadetblue":      0x5f9ea0,
	"dodgerblue":     0x1e90ff,
	"cornflowerblue": 0x6495ed,
	"mediumblue":     0x0000cd,
	"darkblue":       0x00008b,
	"darkgreen":      0x006400,
	"forestgreen":    0x228b22,
	"seagreen":       0x2e8b57,
	"mediumseagreen": 0x3cb371,
	"limegreen":      0x32cd32,
	"palegreen":      0x98fb98,
	"springgreen":    0x00ff7f,
	"darkred":        0x8b0000,
	"firebrick":      0xb22222,
	"indianred":      0xcd5c5c,
	"salmon":         0xfa8072,
	"lightsalmon":    0xffa07a,
	"orange":         0xffa500,
	"darkorange":     0xff8c00,
	"coral":          0xff7f50,
	"tomato":         0xff6347,
	"orangered":      0xff4500,
	"gold":           0xffd700,
	"goldenrod":      0xdaa520,
	"khaki":          0xf0e68c,
	"wheat":          0xf5deb3,
	"tan":            0xd2b48c,
	"chocolate":      0xd2691e,
	"brown":          0xa52a2a,
	"sienna":         0xa0522d,
	"maroon":         0xb03060,
	"pink":           0xffc0cb,
	"lightpink":      0xffb6c1,
	"palepink1":      0xffe4e1, // from the paper's configure example
	"hotpink":        0xff69b4,
	"deeppink":       0xff1493,
	"violet":         0xee82ee,
	"plum":           0xdda0dd,
	"orchid":         0xda70d6,
	"purple":         0xa020f0,
	"violetred":      0xd02090,
	"lavender":       0xe6e6fa,
	"bisque":         0xffe4c4,
	"bisque1":        0xffe4c4,
	"bisque2":        0xeed5b7,
	"bisque3":        0xcdb79e,
	"antiquewhite":   0xfaebd7,
	"ivory":          0xfffff0,
	"beige":          0xf5f5dc,
	"linen":          0xfaf0e6,
	"snow":           0xfffafa,
	"seashell":       0xfff5ee,
	"honeydew":       0xf0fff0,
	"aliceblue":      0xf0f8ff,
	"ghostwhite":     0xf8f8ff,
	"whitesmoke":     0xf5f5f5,
	"turquoise":      0x40e0d0,
	"aquamarine":     0x7fffd4,
	"lightyellow":    0xffffe0,
	"lemonchiffon":   0xfffacd,
	"olivedrab":      0x6b8e23,
	"darkolivegreen": 0x556b2f,
	"midnightblue":   0x191970,
	"slateblue":      0x6a5acd,
	"mediumorchid":   0xba55d3,
	"thistle":        0xd8bfd8,
	"peachpuff":      0xffdab9,
	"navajowhite":    0xffdead,
	"moccasin":       0xffe4b5,
	"cornsilk":       0xfff8dc,
}

// lookupColor resolves a color name or #RGB/#RRGGBB/#RRRRGGGGBBBB spec to
// a pixel.
func lookupColor(name string) (uint32, bool) {
	if strings.HasPrefix(name, "#") {
		hex := name[1:]
		var r, g, b uint32
		switch len(hex) {
		case 3:
			v, err := strconv.ParseUint(hex, 16, 32)
			if err != nil {
				return 0, false
			}
			r = uint32(v>>8&0xf) * 0x11
			g = uint32(v>>4&0xf) * 0x11
			b = uint32(v&0xf) * 0x11
		case 6:
			v, err := strconv.ParseUint(hex, 16, 32)
			if err != nil {
				return 0, false
			}
			return uint32(v), true
		case 12:
			v, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				return 0, false
			}
			r = uint32(v >> 40 & 0xff)
			g = uint32(v >> 24 & 0xff)
			b = uint32(v >> 8 & 0xff)
		default:
			return 0, false
		}
		return r<<16 | g<<8 | b, true
	}
	key := strings.ToLower(strings.ReplaceAll(name, " ", ""))
	px, ok := namedColors[key]
	return px, ok
}

// allocNamedColor resolves a color spec through the server's interned
// cell cache (the stand-in for colormap cell allocation): specs seen
// before — the common case once an application's palette is warm — are
// a map hit. Misses are cached too, so repeated bad specs don't
// re-parse. Called with s.mu held.
func (s *Server) allocNamedColor(name string) (uint32, bool) {
	key := strings.ToLower(strings.ReplaceAll(name, " ", ""))
	if px, ok := s.colorCells[key]; ok {
		return px &^ cellMiss, px&cellMiss == 0
	}
	px, found := lookupColor(name)
	cell := px
	if !found {
		cell = cellMiss
	}
	s.colorCells[key] = cell
	return px, found
}

// cellMiss marks a cached lookup failure in colorCells; pixel values
// are 24-bit RGB, so bit 31 is free.
const cellMiss = uint32(1) << 31
