package tcl

import (
	"strings"
)

// ParseList splits a Tcl list into its elements. Elements are separated
// by white space; braces and double quotes group elements; backslash
// sequences inside bare or quoted elements are substituted. Elements
// without backslash sequences are substrings of s, not copies.
func ParseList(s string) ([]string, error) {
	// A first pass checks the list and counts its elements, so the
	// slice is allocated once.
	n := 0
	for i := 0; ; n++ {
		_, next, err := listElem(s, i)
		if err != nil {
			return nil, err
		}
		if next < 0 {
			break
		}
		i = next
	}
	if n == 0 {
		return nil, nil
	}
	elems := make([]string, 0, n)
	for i := 0; len(elems) < n; {
		e, next, _ := listElem(s, i)
		elems, i = append(elems, e), next
	}
	return elems, nil
}

// listSlots is how many parsed lists an interpreter keeps (see list).
const listSlots = 4

// listSlot is a list string and its elements.
type listSlot struct {
	s     string
	elems []string
}

// list returns the elements of list s, parsing it only when none of the
// interpreter's slots holds an equal string, so a loop that indexes one
// list parses it once. Go's == compares lengths, then data pointers,
// then bytes: the usual hit costs no scan, and an equal copy hits too.
// The slots take turns; errors are not kept. The elements are shared
// with the slot, so callers must not modify them.
func (in *Interp) list(s string) ([]string, error) {
	for i := range in.lists {
		if in.lists[i].s == s {
			return in.lists[i].elems, nil
		}
	}
	elems, err := ParseList(s)
	if err == nil {
		in.lists[in.listNext] = listSlot{s, elems}
		in.listNext = (in.listNext + 1) % listSlots
	}
	return elems, err
}

// listElem scans the element at or after s[i], returning the index just
// past it, or -1 at the end of the list.
func listElem(s string, i int) (elem string, next int, err error) {
	n := len(s)
	for i < n && isListSpace(s[i]) {
		i++
	}
	if i >= n {
		return "", -1, nil
	}
	switch s[i] {
	case '{':
		depth := 1
		j := i + 1
		for ; j < n; j++ {
			if c := s[j]; c == '\\' {
				j++
			} else if c == '{' {
				depth++
			} else if c == '}' {
				if depth--; depth == 0 {
					break
				}
			}
		}
		if depth != 0 {
			return "", 0, errf("unmatched open brace in list")
		}
		if j+1 < n && !isListSpace(s[j+1]) {
			return "", 0, errf("list element in braces followed by %q instead of space", s[j+1:])
		}
		return s[i+1 : j], j + 1, nil
	case '"':
		j := i + 1
		for j < n && s[j] != '"' {
			if s[j] == '\\' {
				j++
			}
			j++
		}
		if j >= n {
			return "", 0, errf("unmatched open quote in list")
		}
		if j+1 < n && !isListSpace(s[j+1]) {
			return "", 0, errf("list element in quotes followed by %q instead of space", s[j+1:])
		}
		return unescape(s[i+1 : j]), j + 1, nil
	}
	j := i
	for j < n && !isListSpace(s[j]) {
		if s[j] == '\\' {
			j++
			if j < n && s[j] == '\n' {
				// A backslash-newline swallows the blanks after it.
				for j+1 < n && (s[j+1] == ' ' || s[j+1] == '\t') {
					j++
				}
			}
		}
		j++
	}
	j = min(j, n)
	return unescape(s[i:j]), j, nil
}

// unescape substitutes the backslash sequences in s.
func unescape(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		if s[i] == '\\' {
			b, i = appendBackslash(b, s, i)
		} else {
			b, i = append(b, s[i]), i+1
		}
	}
	return string(b)
}

func isListSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// QuoteElement converts a string into a form suitable for inclusion as a
// single element of a Tcl list (adding braces or backslashes as needed).
func QuoteElement(s string) string {
	if s == "" {
		return "{}"
	}
	needQuote := false
	braceOK := true
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r', '\v', '\f', ';', '$', '[', ']', '"':
			needQuote = true
		case '\\':
			needQuote = true
			braceOK = false
		case '{':
			needQuote = true
			depth++
		case '}':
			needQuote = true
			depth--
			if depth < 0 {
				braceOK = false
			}
		}
	}
	if depth != 0 {
		braceOK = false
	}
	if s[0] == '{' || s[0] == '"' {
		needQuote = true
	}
	if !needQuote {
		return s
	}
	if braceOK {
		return "{" + s + "}"
	}
	// Backslash-quote every special character.
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '\t', ';', '$', '[', ']', '"', '\\', '{', '}':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString("\\n")
		case '\r':
			b.WriteString("\\r")
		case '\v':
			b.WriteString("\\v")
		case '\f':
			b.WriteString("\\f")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// FormatList joins elements into a well-formed Tcl list string.
func FormatList(elems []string) string {
	var b strings.Builder
	for i, e := range elems {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(QuoteElement(e))
	}
	return b.String()
}
