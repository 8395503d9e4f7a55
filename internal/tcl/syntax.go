package tcl

// The syntax view: the compiler's reading of a script or expression,
// with source positions, for tools that check Tcl without running it
// (tkcheck) and for shells that must know when a typed command is
// complete. Parse and CheckExpr turn on the compiler's span table; all
// three run the compiler itself, so a tool sees exactly the commands,
// words and errors evaluation would.

// Span is a half-open range of byte offsets into source text.
type Span struct{ Start, End int }

// SyntaxError is the first syntax error in a script or expression: the
// message evaluating it raises, and the offset it was found at.
type SyntaxError struct {
	Offset int
	Msg    string
}

// Syntax is a script as the compiler reads it.
type Syntax struct {
	Commands []Command
	// Err is the first syntax error, if any. Evaluation runs the
	// commands before it and none after: the last command is the one it
	// cut short, which is never invoked. That command holds the words
	// compiled before the error, the last of them perhaps cut short
	// too, and their [scripts] still run.
	Err *SyntaxError
}

// Command is one command: its words, and the source from its first
// word's start to its last word's end.
type Command struct {
	Span
	Words []Word
}

// Word is one word of a command. Its Span covers the word's text, inside
// its braces or quotes if it has them.
type Word struct {
	Span
	Braced bool
	// Literal says the word substitutes nothing, so Value is exactly
	// the argument the command receives.
	Literal bool
	Value   string
	// Scripts are the [scripts] evaluating the word runs, in order and
	// without their brackets; the scripts nested in those are not listed.
	Scripts []Span
}

// Parse compiles src as a script and returns its commands. It
// evaluates nothing.
func Parse(src string) Syntax {
	c := &compiler{src: src, spans: make([]Span, 0, 4+len(src)/8)}
	var syn Syntax
	if !c.script(-1) {
		syn.Err = &SyntaxError{Offset: c.errAt, Msg: c.toks[len(c.toks)-1].text}
	}
	for i := 0; i < len(c.toks) && c.toks[i].kind == tCmd; {
		cmd := Command{Span: c.spans[i]}
		n := int(c.toks[i].n)
		for i++; n > 0 && c.toks[i].kind != tError; n-- {
			cmd.Words = append(cmd.Words, c.wordAt(i))
			cmd.End = c.spans[i].End
			i += c.toks[i].extent()
		}
		syn.Commands = append(syn.Commands, cmd)
	}
	return syn
}

// wordAt describes the word whose token is toks[i].
func (c *compiler) wordAt(i int) Word {
	t := c.toks[i]
	w := Word{Span: c.spans[i]}
	if d := c.src[w.Start]; d == '{' || d == '"' {
		w.Braced = d == '{'
		w.Start++
		if w.End > w.Start {
			w.End--
		}
	}
	switch {
	case t.kind == tText:
		w.Literal, w.Value = true, t.text
	case t.kind == tWord && t.n == 1 && c.toks[i+1].kind == tText:
		w.Literal, w.Value = true, c.toks[i+1].text
	}
	w.Scripts = c.scriptsIn(i, i+t.extent())
	return w
}

// scriptsIn lists the outermost [scripts] among toks[from:to], up to a
// syntax error.
func (c *compiler) scriptsIn(from, to int) []Span {
	var out []Span
	for i := from; i < to; i++ {
		switch c.toks[i].kind {
		case tError:
			return out
		case tScript:
			out = append(out, Span{c.spans[i].Start + 1, c.spans[i].End - 1})
			i += int(c.toks[i].n)
		}
	}
	return out
}

// CheckExpr compiles src as an expression, as expr and the conditions
// of if, while and for do, and evaluates nothing. It returns the
// [scripts] among the operands, which evaluating the expression may
// run, or the syntax error that stops it from running at all.
func CheckExpr(src string) ([]Span, *SyntaxError) {
	e := &exprCompiler{compiler: compiler{src: src, spans: []Span{}}}
	if e.compile(); e.err != "" {
		return nil, &SyntaxError{Offset: e.errAt, Msg: e.err}
	}
	return e.scriptsIn(0, len(e.toks)), nil
}

// Complete reports whether src is a run of whole commands, as a shell
// reading a line at a time must know. Only running off the end inside a
// brace, bracket or quote makes it incomplete: a script with any other
// syntax error is complete, and evaluating it reports the error.
func Complete(src string) bool {
	c := &compiler{src: src}
	c.script(-1)
	return !c.open
}
