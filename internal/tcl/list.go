package tcl

import (
	"strings"
)

// ParseList splits a Tcl list into its elements. Elements are separated
// by white space; braces and double quotes group elements; backslash
// sequences inside bare or quoted elements are substituted. Elements
// without backslash sequences are substrings of s, not copies.
func ParseList(s string) ([]string, error) {
	_, n, err := listAt(s, -1)
	if err != nil || n == 0 {
		return nil, err
	}
	elems := make([]string, 0, n)
	for i := 0; ; {
		e, next, _ := listElem(s, i, true)
		if next < 0 {
			return elems, nil
		}
		elems, i = append(elems, e), next
	}
}

// listAt walks the whole list s, checking it as ParseList does, and
// returns its element k (when 0 <= k < n) and its length n. It builds
// no other element.
func listAt(s string, k int) (elem string, n int, err error) {
	for i := 0; ; n++ {
		e, next, err := listElem(s, i, n == k)
		switch {
		case err != nil:
			return "", 0, err
		case next < 0:
			return elem, n, nil
		case n == k:
			elem = e
		}
		i = next
	}
}

// listElem scans the element at or after s[i], returning the index just
// past it, or -1 at the end of the list. It builds the element only when
// want is set.
func listElem(s string, i int, want bool) (elem string, next int, err error) {
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
		return unescape(s[i+1:j], want), j + 1, nil
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
	return unescape(s[i:j], want), j, nil
}

// unescape substitutes the backslash sequences in s when want is set.
func unescape(s string, want bool) string {
	if !want || strings.IndexByte(s, '\\') < 0 {
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
