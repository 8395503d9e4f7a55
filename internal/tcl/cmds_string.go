package tcl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// stringCommands are string, format and scan.
var stringCommands = []Row{
	{Name: "string", Min: 2, Max: -1, Usage: "option arg ?arg ...?", Subs: []Row{
		{Name: "compare", Fn: func(_ *Interp, args []string) (string, error) {
			return strconv.Itoa(strings.Compare(args[2], args[3])), nil
		}, Min: 2, Max: 2, Usage: "string1 string2"},
		{Name: "equal", Fn: func(_ *Interp, args []string) (string, error) {
			return boolResult(args[2] == args[3])
		}, Min: 2, Max: 2, Usage: "string1 string2"},
		{Name: "first", Fn: func(_ *Interp, args []string) (string, error) {
			return strconv.Itoa(strings.Index(args[3], args[2])), nil
		}, Min: 2, Max: 2, Usage: "string1 string2"},
		{Name: "index", Fn: stringIndex, Min: 2, Max: 2, Usage: "string charIndex"},
		{Name: "last", Fn: func(_ *Interp, args []string) (string, error) {
			return strconv.Itoa(strings.LastIndex(args[3], args[2])), nil
		}, Min: 2, Max: 2, Usage: "string1 string2"},
		{Name: "length", Fn: func(_ *Interp, args []string) (string, error) {
			return strconv.Itoa(len(args[2])), nil
		}, Min: 1, Max: 1, Usage: "string"},
		{Name: "match", Fn: func(_ *Interp, args []string) (string, error) {
			return boolResult(GlobMatch(args[2], args[3]))
		}, Min: 2, Max: 2, Usage: "pattern string"},
		{Name: "range", Fn: stringRange, Min: 3, Max: 3, Usage: "string first last"},
		{Name: "repeat", Fn: stringRepeat, Min: 2, Max: 2, Usage: "string count"},
		{Name: "reverse", Fn: func(_ *Interp, args []string) (string, error) {
			r := []rune(args[2])
			slices.Reverse(r)
			return string(r), nil
		}, Min: 1, Max: 1, Usage: "string"},
		{Name: "tolower", Fn: func(_ *Interp, args []string) (string, error) {
			return strings.ToLower(args[2]), nil
		}, Min: 1, Max: 1, Usage: "string"},
		{Name: "toupper", Fn: func(_ *Interp, args []string) (string, error) {
			return strings.ToUpper(args[2]), nil
		}, Min: 1, Max: 1, Usage: "string"},
		{Name: "trim", Fn: trimmer(strings.Trim), Min: 1, Max: 2, Usage: "string ?chars?"},
		{Name: "trimleft", Fn: trimmer(strings.TrimLeft), Min: 1, Max: 2, Usage: "string ?chars?"},
		{Name: "trimright", Fn: trimmer(strings.TrimRight), Min: 1, Max: 2, Usage: "string ?chars?"},
		{Name: "wordend", Fn: stringWordend, Min: 2, Max: 2, Usage: "string index"},
		{Name: "wordstart", Fn: stringWordstart, Min: 2, Max: 2, Usage: "string index"},
	}},
	{Name: "format", Fn: cmdFormat, Min: 1, Max: -1, Usage: "formatString ?arg ...?"},
	{Name: "scan", Fn: cmdScan, Min: 3, Max: -1, Usage: "string formatString varName ?varName ...?"},
}

// boolResult is a boolean as a Tcl result.
func boolResult(b bool) (string, error) {
	if b {
		return "1", nil
	}
	return "0", nil
}

// GlobMatch reports whether s matches the glob pattern pat using Tcl's
// "string match" rules: * matches any sequence, ? any single character,
// [chars] a set or range, and backslash escapes the next character.
func GlobMatch(pat, s string) bool {
	p, n := 0, 0
	for p < len(pat) {
		switch pat[p] {
		case '*':
			// Collapse consecutive stars.
			for p < len(pat) && pat[p] == '*' {
				p++
			}
			if p == len(pat) {
				return true
			}
			for i := n; i <= len(s); i++ {
				if GlobMatch(pat[p:], s[i:]) {
					return true
				}
			}
			return false
		case '?':
			if n >= len(s) {
				return false
			}
			p++
			n++
		case '[':
			if n >= len(s) {
				return false
			}
			p++
			matched := false
			c := s[n]
			for p < len(pat) && pat[p] != ']' {
				lo := pat[p]
				if lo == '\\' && p+1 < len(pat) {
					p++
					lo = pat[p]
				}
				hi := lo
				if p+2 < len(pat) && pat[p+1] == '-' && pat[p+2] != ']' {
					hi = pat[p+2]
					p += 2
				}
				if c >= lo && c <= hi {
					matched = true
				}
				p++
			}
			if p < len(pat) {
				p++ // consume ']'
			}
			if !matched {
				return false
			}
			n++
		case '\\':
			p++
			if p >= len(pat) {
				return n < len(s) && s[n] == '\\'
			}
			fallthrough
		default:
			if n >= len(s) || s[n] != pat[p] {
				return false
			}
			p++
			n++
		}
	}
	return n == len(s)
}

func stringIndex(_ *Interp, args []string) (string, error) {
	i, err := listIndex(args[3], len(args[2]))
	if err != nil {
		return "", err
	}
	if i < 0 || i >= len(args[2]) {
		return "", nil
	}
	return string(args[2][i]), nil
}

func stringRange(_ *Interp, args []string) (string, error) {
	s := args[2]
	first, err := listIndex(args[3], len(s))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[4], len(s))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(s) {
		last = len(s) - 1
	}
	if first > last {
		return "", nil
	}
	return s[first : last+1], nil
}

func stringRepeat(_ *Interp, args []string) (string, error) {
	n, err := strconv.Atoi(args[3])
	if err != nil || n < 0 {
		return "", errf("bad count %q", args[3])
	}
	return strings.Repeat(args[2], n), nil
}

func stringWordend(_ *Interp, args []string) (string, error) {
	s := args[2]
	i, err := strconv.Atoi(args[3])
	if err != nil {
		return "", errf("bad index %q", args[3])
	}
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		return strconv.Itoa(len(s)), nil
	}
	if isWordChar(s[i]) {
		for i < len(s) && isWordChar(s[i]) {
			i++
		}
	} else {
		i++
	}
	return strconv.Itoa(i), nil
}

func stringWordstart(_ *Interp, args []string) (string, error) {
	s := args[2]
	i, err := strconv.Atoi(args[3])
	if err != nil {
		return "", errf("bad index %q", args[3])
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	if i < 0 {
		return "0", nil
	}
	if isWordChar(s[i]) {
		for i > 0 && isWordChar(s[i-1]) {
			i--
		}
	}
	return strconv.Itoa(i), nil
}

func isWordChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// trimmer returns the procedure of a string trim subcommand that trims
// with fn.
func trimmer(fn func(string, string) string) CmdFunc {
	return func(_ *Interp, args []string) (string, error) {
		chars := " \t\n\r\v\f"
		if len(args) == 4 {
			chars = args[3]
		}
		return fn(args[2], chars), nil
	}
}

// cmdFormat implements the C-printf-like format command by translating
// each directive to the corresponding Go verb with a correctly typed
// argument.
func cmdFormat(in *Interp, args []string) (string, error) {
	spec := args[1]
	rest := args[2:]
	var b strings.Builder
	ai := 0
	nextArg := func() (string, error) {
		if ai >= len(rest) {
			return "", errf("not enough arguments for all format specifiers")
		}
		a := rest[ai]
		ai++
		return a, nil
	}
	i := 0
	for i < len(spec) {
		c := spec[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(spec) {
			return "", errf(`format string ended in middle of field specifier`)
		}
		if spec[i] == '%' {
			b.WriteByte('%')
			i++
			continue
		}
		start := i
		// Flags.
		for i < len(spec) && strings.IndexByte("-+ 0#", spec[i]) >= 0 {
			i++
		}
		// Width (possibly '*').
		width := ""
		if i < len(spec) && spec[i] == '*' {
			a, err := nextArg()
			if err != nil {
				return "", err
			}
			w, err2 := strconv.Atoi(strings.TrimSpace(a))
			if err2 != nil {
				return "", errf("expected integer but got %q", a)
			}
			width = strconv.Itoa(w)
			i++
		} else {
			for i < len(spec) && isDigit(spec[i]) {
				i++
			}
		}
		// Precision.
		prec := ""
		if i < len(spec) && spec[i] == '.' {
			i++
			if i < len(spec) && spec[i] == '*' {
				a, err := nextArg()
				if err != nil {
					return "", err
				}
				p, err2 := strconv.Atoi(strings.TrimSpace(a))
				if err2 != nil {
					return "", errf("expected integer but got %q", a)
				}
				prec = "." + strconv.Itoa(p)
				i++
			} else {
				ps := i
				for i < len(spec) && isDigit(spec[i]) {
					i++
				}
				prec = "." + spec[ps:i]
			}
		}
		// Length modifiers are accepted and ignored (h, l).
		for i < len(spec) && (spec[i] == 'h' || spec[i] == 'l') {
			i++
		}
		if i >= len(spec) {
			return "", errf("format string ended in middle of field specifier")
		}
		verb := spec[i]
		i++
		flagsAndWidth := spec[start:]
		// Rebuild the Go directive from the pieces we parsed.
		flags := ""
		for _, fc := range flagsAndWidth {
			if strings.ContainsRune("-+ 0#", fc) {
				flags += string(fc)
			} else {
				break
			}
		}
		if width == "" {
			ws := start + len(flags)
			we := ws
			for we < len(spec) && isDigit(spec[we]) {
				we++
			}
			width = spec[ws:we]
		}
		goDirective := "%" + flags + width + prec
		a, err := nextArg()
		if err != nil {
			return "", err
		}
		switch verb {
		case 'd', 'i', 'o', 'x', 'X', 'u':
			n, err := strconv.ParseInt(strings.TrimSpace(a), 0, 64)
			if err != nil {
				if f, ferr := strconv.ParseFloat(strings.TrimSpace(a), 64); ferr == nil {
					n = int64(f)
				} else {
					return "", errf("expected integer but got %q", a)
				}
			}
			v := verb
			if v == 'i' || v == 'u' {
				v = 'd'
			}
			fmt.Fprintf(&b, goDirective+string(v), n)
		case 'c':
			n, err := strconv.ParseInt(strings.TrimSpace(a), 0, 64)
			if err != nil {
				return "", errf("expected integer but got %q", a)
			}
			fmt.Fprintf(&b, goDirective+"c", rune(n))
		case 'f', 'e', 'E', 'g', 'G':
			f, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
			if err != nil {
				return "", errf("expected floating-point number but got %q", a)
			}
			fmt.Fprintf(&b, goDirective+string(verb), f)
		case 's':
			fmt.Fprintf(&b, goDirective+"s", a)
		default:
			return "", errf("bad field specifier %q", string(verb))
		}
	}
	return b.String(), nil
}

// cmdScan implements a subset of sscanf: %d, %o, %x, %f/%e/%g, %s, %c and
// literal matching. It returns the number of conversions performed.
func cmdScan(in *Interp, args []string) (string, error) {
	input, spec := args[1], args[2]
	vars := args[3:]
	vi := 0
	si := 0
	conversions := 0
	skipSpace := func() {
		for si < len(input) && (input[si] == ' ' || input[si] == '\t' || input[si] == '\n') {
			si++
		}
	}
	store := func(val string) error {
		if vi >= len(vars) {
			return errf("not enough variables for all conversions")
		}
		_, err := in.SetVar(vars[vi], val)
		vi++
		return err
	}
	i := 0
	for i < len(spec) {
		c := spec[i]
		if c == ' ' || c == '\t' || c == '\n' {
			skipSpace()
			i++
			continue
		}
		if c != '%' {
			if si < len(input) && input[si] == c {
				si++
				i++
				continue
			}
			break
		}
		i++
		if i >= len(spec) {
			break
		}
		// Optional maximum field width.
		maxW := -1
		ws := i
		for i < len(spec) && isDigit(spec[i]) {
			i++
		}
		if i > ws {
			maxW, _ = strconv.Atoi(spec[ws:i])
		}
		if i >= len(spec) {
			break
		}
		verb := spec[i]
		i++
		switch verb {
		case 'd', 'o', 'x':
			skipSpace()
			start := si
			if si < len(input) && (input[si] == '-' || input[si] == '+') {
				si++
			}
			valid := func(b byte) bool {
				switch verb {
				case 'o':
					return b >= '0' && b <= '7'
				case 'x':
					return isHex(b)
				default:
					return isDigit(b)
				}
			}
			for si < len(input) && valid(input[si]) && (maxW < 0 || si-start < maxW) {
				si++
			}
			if si == start {
				return strconv.Itoa(conversions), nil
			}
			base := 10
			if verb == 'o' {
				base = 8
			} else if verb == 'x' {
				base = 16
			}
			n, err := strconv.ParseInt(input[start:si], base, 64)
			if err != nil {
				return strconv.Itoa(conversions), nil
			}
			if err := store(strconv.FormatInt(n, 10)); err != nil {
				return "", err
			}
			conversions++
		case 'f', 'e', 'g':
			skipSpace()
			start := si
			for si < len(input) && strings.IndexByte("+-0123456789.eE", input[si]) >= 0 && (maxW < 0 || si-start < maxW) {
				si++
			}
			f, err := strconv.ParseFloat(input[start:si], 64)
			if err != nil {
				return strconv.Itoa(conversions), nil
			}
			if err := store(formatFloat(f)); err != nil {
				return "", err
			}
			conversions++
		case 's':
			skipSpace()
			start := si
			for si < len(input) && input[si] != ' ' && input[si] != '\t' && input[si] != '\n' && (maxW < 0 || si-start < maxW) {
				si++
			}
			if si == start {
				return strconv.Itoa(conversions), nil
			}
			if err := store(input[start:si]); err != nil {
				return "", err
			}
			conversions++
		case 'c':
			if si >= len(input) {
				return strconv.Itoa(conversions), nil
			}
			if err := store(strconv.Itoa(int(input[si]))); err != nil {
				return "", err
			}
			si++
			conversions++
		case '%':
			if si < len(input) && input[si] == '%' {
				si++
			}
		default:
			return "", errf("bad scan conversion character %q", string(verb))
		}
	}
	return strconv.Itoa(conversions), nil
}
