package tcl

import (
	"strings"
	"unicode/utf8"
)

// A script compiles to a flat token array, in the style of Tcl_Parse:
// each command is a tCmd token followed by its words. A word is either
// one part token or a tWord token followed by its parts, which are
// concatenated. Literal parts are substrings of the source wherever no
// backslash sequence had to be resolved, so compiling copies no text.
// The compiled form depends only on the source text, so it never goes
// stale and can be reused for as long as that text is evaluated.
type tokKind uint8

const (
	tCmd    tokKind = iota // a command of n words; the words follow
	tWord                  // a word made of the n tokens that follow
	tText                  // literal text
	tVar                   // variable text; the n tokens that follow build its array index
	tScript                // [script]: the n tokens that follow are the nested script
	tError                 // a syntax error with message text, raised when reached
)

type token struct {
	kind tokKind
	n    int32
	text string
}

// extent is the number of tokens a word or part spans, itself included.
func (t *token) extent() int { return 1 + int(t.n) }

// maxNesting bounds recursive evaluation depth, and with it how deeply
// compiled brackets and parentheses may nest.
const maxNesting = 1000

const nestingMsg = "too many nested calls to Tcl interpreter (infinite loop?)"

// partMode says what ends a run of parts.
type partMode uint8

const (
	inBare   partMode = iota // an unquoted word of a top-level script
	inNested                 // an unquoted word inside [...]: ']' also ends it
	inQuote                  // a "..." word: ends at the closing quote
	inIndex                  // an array index: ends at the matching ')'
	inAll                    // whole-string substitution: ends at the end
)

// compiler turns source text into tokens. After the first syntax error
// it stops: the error token is the last one, so the commands and
// substitutions before the error still run and the rest never does.
type compiler struct {
	src   string
	pos   int
	toks  []token
	depth int
}

// compileScript compiles a script, reusing buf's storage when it is
// not nil. The result is never nil.
func compileScript(src string, buf []token) []token {
	if buf == nil {
		buf = make([]token, 0, 4+len(src)/8)
	}
	c := &compiler{src: src, toks: buf[:0]}
	c.script(false)
	return c.toks
}

func (c *compiler) emit(kind tokKind, text string) int {
	c.toks = append(c.toks, token{kind: kind, text: text})
	return len(c.toks) - 1
}

// fail emits a syntax error and reports false.
func (c *compiler) fail(msg string) bool {
	c.emit(tError, msg)
	return false
}

// close sets the token count of the container opened at at.
func (c *compiler) close(at int) { c.toks[at].n = int32(len(c.toks) - at - 1) }

// closeWord finishes a tWord opened at at, dropping the header when the
// word has fewer than two parts.
func (c *compiler) closeWord(at int) {
	c.close(at)
	switch n := int(c.toks[at].n); {
	case n == 0:
		c.toks[at] = token{kind: tText}
	case c.toks[at+1].extent() == n:
		c.toks = append(c.toks[:at], c.toks[at+1:]...)
	}
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// backslashNewline reports whether a backslash-newline starts at i.
func (c *compiler) backslashNewline(i int) bool {
	return c.src[i] == '\\' && i+1 < len(c.src) && c.src[i+1] == '\n'
}

// script compiles commands up to the end of the source or, when nested,
// up to and including the unmatched ']'. It reports false after a
// syntax error.
func (c *compiler) script(nested bool) bool {
	for {
		for c.pos < len(c.src) {
			if ch := c.src[c.pos]; isBlank(ch) || ch == '\n' || ch == ';' {
				c.pos++
			} else if c.backslashNewline(c.pos) {
				c.pos += 2
			} else {
				break
			}
		}
		switch {
		case c.pos >= len(c.src):
			return !nested || c.fail("missing close-bracket")
		case nested && c.src[c.pos] == ']':
			c.pos++
			return true
		case c.src[c.pos] == '#':
			c.comment()
		default:
			if !c.command(nested) {
				return false
			}
		}
	}
}

// comment skips a comment up to and including its newline; a
// backslash-newline continues it.
func (c *compiler) comment() {
	for c.pos < len(c.src) {
		if c.backslashNewline(c.pos) {
			c.pos += 2
			continue
		}
		c.pos++
		if c.src[c.pos-1] == '\n' {
			return
		}
	}
}

// command compiles the words of one command.
func (c *compiler) command(nested bool) bool {
	at := c.emit(tCmd, "")
	for {
		for c.pos < len(c.src) && (isBlank(c.src[c.pos]) || c.backslashNewline(c.pos)) {
			if c.src[c.pos] == '\\' {
				c.pos++
			}
			c.pos++
		}
		if c.pos >= len(c.src) || nested && c.src[c.pos] == ']' {
			return true
		}
		if ch := c.src[c.pos]; ch == '\n' || ch == ';' {
			c.pos++
			return true
		}
		c.toks[at].n++
		if !c.word(nested) {
			return false
		}
	}
}

func (c *compiler) word(nested bool) bool {
	switch c.src[c.pos] {
	case '{':
		return c.braced()
	case '"':
		return c.quoted(false)
	}
	at := c.emit(tWord, "")
	mode := inBare
	if nested {
		mode = inNested
	}
	ok := c.parts(mode)
	c.closeWord(at)
	return ok
}

// endsWord reports whether the byte at i may follow a close-brace or
// close-quote.
func (c *compiler) endsWord(i int) bool {
	if i >= len(c.src) {
		return true
	}
	ch := c.src[i]
	return isBlank(ch) || ch == '\n' || ch == ';' || ch == ']'
}

// braced compiles a {...} word. Its contents are literal, except that a
// backslash-newline and the blanks after it become a single space.
func (c *compiler) braced() bool {
	depth := 0
	c.pos++ // '{'
	run := c.pos
	var esc []byte
	for c.pos < len(c.src) {
		switch c.src[c.pos] {
		case '\\':
			if c.backslashNewline(c.pos) {
				esc = append(append(esc, c.src[run:c.pos]...), ' ')
				c.pos += 2
				for c.pos < len(c.src) && (c.src[c.pos] == ' ' || c.src[c.pos] == '\t') {
					c.pos++
				}
				run = c.pos
				continue
			}
			c.pos++
		case '{':
			depth++
		case '}':
			if depth == 0 {
				text := c.src[run:c.pos]
				if esc != nil {
					text = string(append(esc, text...))
				}
				c.pos++
				if !c.endsWord(c.pos) {
					return c.fail("extra characters after close-brace")
				}
				c.emit(tText, text)
				return true
			}
			depth--
		}
		c.pos++
	}
	return c.fail("missing close-brace")
}

// quoted compiles a "..." word. Inside an expression an operator may
// follow the closing quote directly.
func (c *compiler) quoted(inExpr bool) bool {
	c.pos++ // '"'
	at := c.emit(tWord, "")
	ok := c.parts(inQuote)
	if ok {
		c.pos++ // '"'
		if !inExpr && !c.endsWord(c.pos) {
			ok = c.fail("extra characters after close-quote")
		}
	}
	c.closeWord(at)
	return ok
}

// parts compiles literal text, backslash sequences, $variables and
// [scripts] up to the end that mode gives, leaving pos on the closing
// '"' or ')'.
func (c *compiler) parts(mode partMode) bool {
	run := c.pos   // start of the pending literal's unescaped tail
	var esc []byte // the pending literal so far, once it has a backslash sequence
	flush := func() {
		if esc != nil {
			c.emit(tText, string(append(esc, c.src[run:c.pos]...)))
			esc = nil
		} else if run < c.pos {
			c.emit(tText, c.src[run:c.pos])
		}
	}
	depth := 0
	for c.pos < len(c.src) {
		ch := c.src[c.pos]
		switch {
		case ch == '$' && c.isVarRef(c.pos):
			flush()
			if !c.variable() {
				return false
			}
			run = c.pos
			continue
		case ch == '[':
			flush()
			if !c.bracket() {
				return false
			}
			run = c.pos
			continue
		case ch == '\\':
			if mode <= inNested && c.backslashNewline(c.pos) {
				flush()
				return true
			}
			esc = append(esc, c.src[run:c.pos]...)
			esc, c.pos = appendBackslash(esc, c.src, c.pos)
			run = c.pos
			continue
		case mode <= inNested && (isBlank(ch) || ch == '\n' || ch == ';'),
			mode == inNested && ch == ']',
			mode == inQuote && ch == '"',
			mode == inIndex && ch == ')' && depth == 0:
			flush()
			return true
		case mode == inIndex && ch == '(':
			depth++
		case mode == inIndex && ch == ')':
			depth--
		}
		c.pos++
	}
	flush()
	switch mode {
	case inQuote:
		return c.fail(`missing "`)
	case inIndex:
		return c.fail("missing )")
	}
	return true
}

// isVarRef reports whether the '$' at i starts a variable reference; a
// '$' followed by no name is literal.
func (c *compiler) isVarRef(i int) bool {
	return i+1 < len(c.src) && (c.src[i+1] == '{' || isVarNameChar(c.src[i+1]))
}

// variable compiles $name, ${name} or $name(index) at pos.
func (c *compiler) variable() bool {
	c.pos++ // '$'
	if c.src[c.pos] == '{' {
		end := strings.IndexByte(c.src[c.pos:], '}')
		if end < 0 {
			return c.fail("missing close-brace for variable name")
		}
		c.emit(tVar, c.src[c.pos+1:c.pos+end])
		c.pos += end + 1
		return true
	}
	start := c.pos
	for c.pos < len(c.src) && isVarNameChar(c.src[c.pos]) {
		c.pos++
	}
	at := c.emit(tVar, c.src[start:c.pos])
	if c.pos >= len(c.src) || c.src[c.pos] != '(' {
		return true
	}
	c.pos++ // '('
	ok := c.parts(inIndex)
	c.close(at)
	if ok {
		c.pos++ // ')'
	}
	return ok
}

func isVarNameChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// bracket compiles a [script] at pos: the nested script runs up to its
// unmatched ']', so brackets inside its braces and quotes don't count.
// A syntax error inside fails the whole bracket: none of it runs.
func (c *compiler) bracket() bool {
	c.pos++ // '['
	at := c.emit(tScript, "")
	c.depth++
	ok := c.depth <= maxNesting && c.script(true)
	c.depth--
	if !ok {
		msg := nestingMsg
		if len(c.toks) > at+1 {
			msg = c.toks[len(c.toks)-1].text
		}
		c.toks = c.toks[:at]
		return c.fail(msg)
	}
	c.close(at)
	return true
}

// appendBackslash appends the replacement for the backslash sequence at
// src[i] (Figure 5 of the paper plus the standard table) and returns the
// index after the sequence.
func appendBackslash(dst []byte, src string, i int) ([]byte, int) {
	i++ // '\'
	if i >= len(src) {
		return append(dst, '\\'), i
	}
	c := src[i]
	i++
	switch c {
	case 'a':
		return append(dst, '\a'), i
	case 'b':
		return append(dst, '\b'), i
	case 'f':
		return append(dst, '\f'), i
	case 'n':
		return append(dst, '\n'), i
	case 'r':
		return append(dst, '\r'), i
	case 't':
		return append(dst, '\t'), i
	case 'v':
		return append(dst, '\v'), i
	case '\n':
		// Backslash-newline plus following blanks collapses to a space.
		for i < len(src) && (src[i] == ' ' || src[i] == '\t') {
			i++
		}
		return append(dst, ' '), i
	case 'x':
		// \xHH hexadecimal.
		val, n := 0, 0
		for ; i < len(src) && n < 2 && isHex(src[i]); i, n = i+1, n+1 {
			val = val*16 + hexVal(src[i])
		}
		if n == 0 {
			return append(dst, 'x'), i
		}
		return utf8.AppendRune(dst, rune(val)), i
	case '0', '1', '2', '3', '4', '5', '6', '7':
		val := int(c - '0')
		for n := 1; i < len(src) && n < 3 && src[i] >= '0' && src[i] <= '7'; i, n = i+1, n+1 {
			val = val*8 + int(src[i]-'0')
		}
		return utf8.AppendRune(dst, rune(val)), i
	}
	return append(dst, c), i
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// run executes compiled commands and returns the last one's result.
func (in *Interp) run(toks []token) (string, error) {
	result := ""
	for i := 0; i < len(toks); {
		if toks[i].kind != tCmd {
			return in.part(toks, i) // a syntax error between commands
		}
		words := make([]string, toks[i].n)
		i++
		for w := range words {
			s, err := in.part(toks, i)
			if err != nil {
				return "", err
			}
			words[w], i = s, i+toks[i].extent()
		}
		var err error
		if result, err = in.invoke(words); err != nil {
			return "", err
		}
	}
	return result, nil
}

// part evaluates the word or part at toks[i].
func (in *Interp) part(toks []token, i int) (string, error) {
	t := &toks[i]
	switch t.kind {
	case tText:
		return t.text, nil
	case tVar:
		if t.n == 0 {
			return in.varRead(t.text, "")
		}
		index, err := in.concat(toks[i+1 : i+t.extent()])
		if err != nil {
			return "", err
		}
		return in.varRead(t.text, index)
	case tScript:
		return in.evalCode(toks[i+1 : i+t.extent()])
	case tWord:
		return in.concat(toks[i+1 : i+t.extent()])
	}
	// A fresh error every time: callers append to its Info.
	return "", &Error{Code: ErrorStatus, Msg: t.text}
}

// concat evaluates a run of parts and joins the results.
func (in *Interp) concat(toks []token) (string, error) {
	switch {
	case len(toks) == 0:
		return "", nil
	case toks[0].extent() == len(toks):
		return in.part(toks, 0)
	}
	var b strings.Builder
	for i := 0; i < len(toks); i += toks[i].extent() {
		s, err := in.part(toks, i)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

// SubstituteAll performs $, [] and backslash substitution on s without
// splitting it into words, like Tcl_ExprString's argument handling. Tk's
// bind machinery uses it for %-substituted commands that arrive as whole
// scripts.
func (in *Interp) SubstituteAll(s string) (string, error) {
	c := &compiler{src: s, toks: in.scratch[:0]}
	in.scratch = nil
	c.parts(inAll)
	res, err := in.concat(c.toks)
	if cap(c.toks) <= scratchMax {
		in.scratch = c.toks[:0]
	}
	return res, err
}
