package tcl

import (
	"regexp"
	"strings"
	"sync"
)

// regexpCommands are regexp and regsub, present in the Tcl of the
// paper's era. Patterns use Go's RE2 syntax, a close superset of the
// original egrep-style patterns for everything scripts of the period
// wrote.
var regexpCommands = []Row{
	{Name: "regexp", Fn: cmdRegexp, Min: 2, Max: -1, Usage: "?switches? exp string ?matchVar? ?subMatchVar ...?"},
	{Name: "regsub", Fn: cmdRegsub, Min: 4, Max: -1, Usage: "?switches? exp string subSpec varName"},
}

// patternCache caches compiled patterns. Each interpreter is
// single-threaded, but separate interpreters (separate applications in
// one test process) may run on different goroutines, so the shared cache
// is guarded.
var (
	patternMu    sync.Mutex
	patternCache = map[string]*regexp.Regexp{}
)

func compilePattern(pat string, nocase bool) (*regexp.Regexp, error) {
	key := pat
	if nocase {
		key = "(?i)" + pat
	}
	patternMu.Lock()
	re, ok := patternCache[key]
	patternMu.Unlock()
	if ok {
		return re, nil
	}
	re, err := regexp.Compile(key)
	if err != nil {
		return nil, errf("couldn't compile regular expression pattern: %s", err)
	}
	patternMu.Lock()
	if len(patternCache) < 1024 {
		patternCache[key] = re
	}
	patternMu.Unlock()
	return re, nil
}

// cmdRegexp implements:
//
//	regexp ?-nocase? exp string ?matchVar? ?subMatchVar ...?
func cmdRegexp(in *Interp, args []string) (string, error) {
	rest := args[1:]
	nocase := false
	for len(rest) > 0 && strings.HasPrefix(rest[0], "-") {
		switch rest[0] {
		case "-nocase":
			nocase = true
		case "--":
			rest = rest[1:]
			goto doneOpts
		default:
			return "", errf("bad switch %q: must be -nocase or --", rest[0])
		}
		rest = rest[1:]
	}
doneOpts:
	if len(rest) < 2 {
		return "", in.usage(args)
	}
	re, err := compilePattern(rest[0], nocase)
	if err != nil {
		return "", err
	}
	m := re.FindStringSubmatch(rest[1])
	if m == nil {
		return "0", nil
	}
	for i, varName := range rest[2:] {
		val := ""
		if i < len(m) {
			val = m[i]
		}
		if _, err := in.SetVar(varName, val); err != nil {
			return "", err
		}
	}
	return "1", nil
}

// cmdRegsub implements:
//
//	regsub ?-nocase? ?-all? exp string subSpec varName
//
// It returns 1 if a substitution occurred, 0 otherwise, storing the
// resulting string in varName. & and \0..\9 in subSpec refer to the match
// and submatches, as in Tcl.
func cmdRegsub(in *Interp, args []string) (string, error) {
	rest := args[1:]
	nocase, all := false, false
	for len(rest) > 0 && strings.HasPrefix(rest[0], "-") {
		switch rest[0] {
		case "-nocase":
			nocase = true
		case "-all":
			all = true
		case "--":
			rest = rest[1:]
			goto doneOpts
		default:
			return "", errf("bad switch %q: must be -all, -nocase or --", rest[0])
		}
		rest = rest[1:]
	}
doneOpts:
	if len(rest) != 4 {
		return "", in.usage(args)
	}
	re, err := compilePattern(rest[0], nocase)
	if err != nil {
		return "", err
	}
	input, subSpec, varName := rest[1], rest[2], rest[3]

	matched := false
	expand := func(m []string) string {
		var b strings.Builder
		for i := 0; i < len(subSpec); i++ {
			c := subSpec[i]
			switch {
			case c == '&':
				b.WriteString(m[0])
			case c == '\\' && i+1 < len(subSpec):
				n := subSpec[i+1]
				if n >= '0' && n <= '9' {
					idx := int(n - '0')
					if idx < len(m) {
						b.WriteString(m[idx])
					}
					i++
				} else {
					b.WriteByte(n)
					i++
				}
			default:
				b.WriteByte(c)
			}
		}
		return b.String()
	}

	var out string
	if all {
		out = re.ReplaceAllStringFunc(input, func(s string) string {
			matched = true
			m := re.FindStringSubmatch(s)
			return expand(m)
		})
	} else {
		loc := re.FindStringSubmatchIndex(input)
		if loc == nil {
			out = input
		} else {
			matched = true
			m := re.FindStringSubmatch(input[loc[0]:loc[1]])
			// Note: submatches computed against the matched slice keeps
			// the expansion simple and correct for non-anchored patterns.
			full := re.FindStringSubmatch(input)
			if full != nil {
				m = full
			}
			out = input[:loc[0]] + expand(m) + input[loc[1]:]
		}
	}
	if _, err := in.SetVar(varName, out); err != nil {
		return "", err
	}
	if matched {
		return "1", nil
	}
	return "0", nil
}
