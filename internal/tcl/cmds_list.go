package tcl

import (
	"sort"
	"strconv"
	"strings"
)

// registerList installs the list commands, including the Tcl 6.x-era
// short names (index, range) that scripts in the paper use.
func registerList(in *Interp) {
	in.Register("list", cmdList)
	in.Register("lindex", cmdLindex)
	in.Register("index", cmdLindex) // historical alias used in Figure 9
	in.Register("llength", cmdLlength)
	in.Register("lappend", cmdLappend)
	in.Register("lrange", cmdLrange)
	in.Register("range", cmdLrange) // historical alias
	in.Register("linsert", cmdLinsert)
	in.Register("lreplace", cmdLreplace)
	in.Register("lsort", cmdLsort)
	in.Register("lsearch", cmdLsearch)
	in.Register("concat", cmdConcat)
	in.Register("join", cmdJoin)
	in.Register("split", cmdSplit)
}

func cmdList(in *Interp, args []string) (string, error) {
	return FormatList(args[1:]), nil
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

// cmdLindex and cmdLlength walk the list without splitting it.
func cmdLindex(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2, "list index"); err != nil {
		return "", err
	}
	k, err := strconv.Atoi(args[2])
	if err != nil {
		k = -1 // end-relative or bad: needs the length first
	}
	elem, n, err := listAt(args[1], k)
	if err != nil {
		return "", err
	}
	i, err := listIndex(args[2], n)
	switch {
	case err != nil:
		return "", err
	case i < 0 || i >= n:
		return "", nil
	case i != k:
		elem, _, err = listAt(args[1], i)
	}
	return elem, err
}

func cmdLlength(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1, "list"); err != nil {
		return "", err
	}
	_, n, err := listAt(args[1], -1)
	if err != nil {
		return "", err
	}
	return strconv.Itoa(n), nil
}

func cmdLappend(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "varName ?value value ...?"); err != nil {
		return "", err
	}
	cur := ""
	if in.VarExists(args[1]) {
		var err error
		cur, err = in.GetVar(args[1])
		if err != nil {
			return "", err
		}
	}
	var b strings.Builder
	b.WriteString(cur)
	for _, v := range args[2:] {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(QuoteElement(v))
	}
	return in.SetVar(args[1], b.String())
}

func cmdLrange(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3, "list first last"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[1])
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
	if err := arity(args, 3, -1, "list index element ?element ...?"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	i, err := listIndex(args[2], len(elems))
	if err != nil {
		if args[2] == "end" {
			i = len(elems)
		} else {
			return "", err
		}
	}
	if args[2] == "end" {
		i = len(elems)
	}
	if i < 0 {
		i = 0
	}
	if i > len(elems) {
		i = len(elems)
	}
	out := make([]string, 0, len(elems)+len(args)-3)
	out = append(out, elems[:i]...)
	out = append(out, args[3:]...)
	out = append(out, elems[i:]...)
	return FormatList(out), nil
}

func cmdLreplace(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, -1, "list first last ?element element ...?"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[1])
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
	if len(args) < 2 {
		return "", errf(`wrong # args: should be "lsort ?options? list"`)
	}
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
	elems, err := ParseList(args[len(args)-1])
	if err != nil {
		return "", err
	}
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
	if len(rest) != 2 {
		return "", errf(`wrong # args: should be "lsearch ?mode? list pattern"`)
	}
	elems, err := ParseList(rest[0])
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
	if err := arity(args, 1, 2, "list ?joinString?"); err != nil {
		return "", err
	}
	sep := " "
	if len(args) == 3 {
		sep = args[2]
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	return strings.Join(elems, sep), nil
}

func cmdSplit(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "string ?splitChars?"); err != nil {
		return "", err
	}
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
