package tcl

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// listCommands are the list commands, including the Tcl 6.x-era short
// names (index, range) that scripts in the paper use.
var listCommands = []Row{
	{Name: "list", Fn: func(_ *Interp, args []string) (string, error) {
		return FormatList(args[1:]), nil
	}, Max: -1, Usage: "?arg arg ...?"},
	{Name: "lindex", Fn: cmdLindex, Min: 2, Max: 2, Usage: "list index"},
	{Name: "index", Fn: cmdLindex, Min: 2, Max: 2, Usage: "list index"}, // historical alias used in Figure 9
	{Name: "llength", Fn: cmdLlength, Min: 1, Max: 1, Usage: "list"},
	{Name: "lappend", Fn: cmdLappend, Min: 1, Max: -1, Usage: "varName ?value value ...?"},
	{Name: "lrange", Fn: cmdLrange, Min: 3, Max: 3, Usage: "list first last"},
	{Name: "range", Fn: cmdLrange, Min: 3, Max: 3, Usage: "list first last"}, // historical alias
	{Name: "linsert", Fn: cmdLinsert, Min: 3, Max: -1, Usage: "list index element ?element ...?"},
	{Name: "lreplace", Fn: cmdLreplace, Min: 3, Max: -1, Usage: "list first last ?element element ...?"},
	{Name: "lsort", Fn: cmdLsort, Min: 1, Max: -1, Usage: "?options? list"},
	{Name: "lsearch", Fn: cmdLsearch, Min: 2, Max: 3, Usage: "?mode? list pattern"},
	{Name: "concat", Fn: cmdConcat, Max: -1, Usage: "?arg arg ...?"},
	{Name: "join", Fn: cmdJoin, Min: 1, Max: 2, Usage: "list ?joinString?"},
	{Name: "split", Fn: cmdSplit, Min: 1, Max: 2, Usage: "string ?splitChars?"},
}

// listIndex parses a list index, supporting "end" and "end-N".
func listIndex(spec string, length int) (int, error) {
	if spec == "end" {
		return length - 1, nil
	}
	if strings.HasPrefix(spec, "end-") {
		n, err := strconv.Atoi(spec[4:])
		if err != nil {
			return 0, errf("bad index %q: must be integer or end?-integer?", spec)
		}
		return length - 1 - n, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil {
		return 0, errf("bad index %q: must be integer or end?-integer?", spec)
	}
	return n, nil
}

func cmdLindex(in *Interp, args []string) (string, error) {
	elems, err := in.list(args[1])
	if err != nil {
		return "", err
	}
	i, err := listIndex(args[2], len(elems))
	if err != nil || i < 0 || i >= len(elems) {
		return "", err
	}
	return elems[i], nil
}

func cmdLlength(in *Interp, args []string) (string, error) {
	elems, err := in.list(args[1])
	if err != nil {
		return "", err
	}
	return strconv.Itoa(len(elems)), nil
}

func cmdLappend(in *Interp, args []string) (string, error) {
	return in.appendVar(args, true)
}

func cmdLrange(in *Interp, args []string) (string, error) {
	elems, err := in.list(args[1])
	if err != nil {
		return "", err
	}
	first, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[3], len(elems))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(elems) {
		last = len(elems) - 1
	}
	if first > last {
		return "", nil
	}
	return FormatList(elems[first : last+1]), nil
}

func cmdLinsert(in *Interp, args []string) (string, error) {
	elems, err := in.list(args[1])
	if err != nil {
		return "", err
	}
	// The elements go before index i; end is the position after the
	// last element, so end-1 is before the last one.
	i, err := listIndex(args[2], len(elems)+1)
	if err != nil {
		return "", err
	}
	i = min(max(i, 0), len(elems))
	out := make([]string, 0, len(elems)+len(args)-3)
	out = append(out, elems[:i]...)
	out = append(out, args[3:]...)
	out = append(out, elems[i:]...)
	return FormatList(out), nil
}

func cmdLreplace(in *Interp, args []string) (string, error) {
	elems, err := in.list(args[1])
	if err != nil {
		return "", err
	}
	first, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[3], len(elems))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(elems) {
		last = len(elems) - 1
	}
	out := make([]string, 0, len(elems))
	if first <= len(elems) {
		out = append(out, elems[:min(first, len(elems))]...)
	}
	out = append(out, args[4:]...)
	if last+1 < len(elems) && last >= first-1 {
		out = append(out, elems[last+1:]...)
	} else if last < first-1 && first < len(elems) {
		out = append(out, elems[first:]...)
	}
	return FormatList(out), nil
}

func cmdLsort(in *Interp, args []string) (string, error) {
	mode := "ascii"
	decreasing := false
	for _, opt := range args[1 : len(args)-1] {
		switch opt {
		case "-ascii":
			mode = "ascii"
		case "-integer":
			mode = "integer"
		case "-real":
			mode = "real"
		case "-increasing":
			decreasing = false
		case "-decreasing":
			decreasing = true
		default:
			return "", errf("bad option %q: must be -ascii, -integer, -real, -increasing or -decreasing", opt)
		}
	}
	elems, err := in.list(args[len(args)-1])
	if err != nil {
		return "", err
	}
	elems = slices.Clone(elems) // sorted in place; the slot keeps the original
	var sortErr error
	less := func(a, b string) bool {
		switch mode {
		case "integer":
			ai, e1 := strconv.ParseInt(strings.TrimSpace(a), 0, 64)
			bi, e2 := strconv.ParseInt(strings.TrimSpace(b), 0, 64)
			if e1 != nil || e2 != nil {
				if sortErr == nil {
					sortErr = errf("expected integer but got %q", a)
				}
				return a < b
			}
			return ai < bi
		case "real":
			af, e1 := strconv.ParseFloat(strings.TrimSpace(a), 64)
			bf, e2 := strconv.ParseFloat(strings.TrimSpace(b), 64)
			if e1 != nil || e2 != nil {
				if sortErr == nil {
					sortErr = errf("expected floating-point number but got %q", a)
				}
				return a < b
			}
			return af < bf
		default:
			return a < b
		}
	}
	sort.SliceStable(elems, func(i, j int) bool {
		if decreasing {
			return less(elems[j], elems[i])
		}
		return less(elems[i], elems[j])
	})
	if sortErr != nil {
		return "", sortErr
	}
	return FormatList(elems), nil
}

func cmdLsearch(in *Interp, args []string) (string, error) {
	mode := "-glob"
	rest := args[1:]
	if len(rest) == 3 {
		switch rest[0] {
		case "-exact", "-glob":
			mode = rest[0]
			rest = rest[1:]
		default:
			return "", errf("bad option %q: must be -exact or -glob", rest[0])
		}
	}
	elems, err := in.list(rest[0])
	if err != nil {
		return "", err
	}
	for i, e := range elems {
		var found bool
		if mode == "-exact" {
			found = e == rest[1]
		} else {
			found = GlobMatch(rest[1], e)
		}
		if found {
			return strconv.Itoa(i), nil
		}
	}
	return "-1", nil
}

func cmdConcat(in *Interp, args []string) (string, error) {
	parts := make([]string, 0, len(args)-1)
	for _, a := range args[1:] {
		t := strings.TrimSpace(a)
		if t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " "), nil
}

func cmdJoin(in *Interp, args []string) (string, error) {
	sep := " "
	if len(args) == 3 {
		sep = args[2]
	}
	elems, err := in.list(args[1])
	if err != nil {
		return "", err
	}
	return strings.Join(elems, sep), nil
}

func cmdSplit(in *Interp, args []string) (string, error) {
	s := args[1]
	chars := " \t\n\r"
	if len(args) == 3 {
		chars = args[2]
	}
	if chars == "" {
		out := make([]string, 0, len(s))
		for _, r := range s {
			out = append(out, string(r))
		}
		return FormatList(out), nil
	}
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(chars, s[i]) >= 0 {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return FormatList(out), nil
}
