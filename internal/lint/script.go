package lint

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tcl"
	"repro/internal/tk"
)

// lintMode selects how much of a script can be checked.
type lintMode int

const (
	// modeScript lints a complete script: structure, command names,
	// arities, nested scripts.
	modeScript lintMode = iota
	// modePrefix lints a command prefix: the caller appends arguments
	// at run time (scrollbar -command, scale -command), so only
	// structure and the leading command word are checked.
	modePrefix
)

// linter lints one unit: a .tcl file or one script literal extracted
// from a Go file. src is the unit's entire source; all offsets index
// into it, and posFn (when non-nil) maps offsets to positions in the
// enclosing file. Scripts and expressions are read with internal/tcl's
// own compiler (tcl.Parse, tcl.CheckExpr), so the linter sees exactly
// the commands, words and syntax errors the interpreter does.
type linter struct {
	file  string
	src   string
	reg   *Registry
	posFn func(off int) (line, col int)
	// procs collects procedure and renamed-command names defined
	// anywhere in the unit (including in deferred scripts), so a bind
	// body may call a proc defined later at top level.
	procs map[string]bool
	// classes maps the literal paths literal creation commands make
	// anywhere in the unit ("listbox .lb") to the creation command, or
	// to "" when the unit makes one path with two classes.
	classes map[string]string
	// suppress maps active "# tkcheck:ignore" rules to the command
	// range they cover.
	suppressed []suppression
	diags      []Diag
}

type suppression struct {
	rules      []string
	start, end int
}

func newLinter(file, src string, reg *Registry, posFn func(int) (int, int)) *linter {
	return &linter{file: file, src: src, reg: reg, posFn: posFn, procs: make(map[string]bool), classes: make(map[string]string)}
}

func (l *linter) run() {
	whole := piece{text: l.src}
	l.collectDefs(whole)
	l.lintScript(whole, modeScript)
}

// A piece is script or expression text to check, and where its
// diagnostics point in the unit's source. A braced word, or any word
// whose value is its source text, is a range of the source and keeps
// exact positions. A word whose backslash sequences change its value is
// checked as the value that will run, and every diagnostic inside it
// points at the word.
type piece struct {
	text   string
	base   int  // offset in the unit of text[0]
	pinned bool // every offset in text maps to base
}

// at maps an offset into p.text to one into the unit's source.
func (p piece) at(off int) int {
	if p.pinned {
		return p.base
	}
	return p.base + off
}

// sub returns the piece for a span of p.text.
func (p piece) sub(s tcl.Span) piece {
	return piece{text: p.text[s.Start:s.End], base: p.at(s.Start), pinned: p.pinned}
}

// word is one word of a command, positioned in the unit.
type word struct {
	literal bool   // no $var or [cmd] substitution: val is the runtime value
	val     string // valid only when literal
	off     int    // offset of the word's text, inside any braces or quotes
	braced  bool
	body    piece   // the word as a script or expression: see piece
	scripts []piece // the [command] substitutions the word runs
}

// cmdNode is one parsed command.
type cmdNode struct {
	words    []word
	off, end int
	// suppress lists rule names a "# tkcheck:ignore" comment directly
	// above the command disables; a bare ignore yields []string{"all"}.
	suppress []string
}

// parse compiles p as a script. When err is set, the last command is
// the one it cut short.
func (p piece) parse() ([]cmdNode, *tcl.SyntaxError) {
	syn := tcl.Parse(p.text)
	cmds := make([]cmdNode, len(syn.Commands))
	prev := 0
	for i, c := range syn.Commands {
		cmds[i] = cmdNode{off: p.at(c.Start), end: p.at(c.End), suppress: ignoreRules(p.text[prev:c.Start])}
		prev = c.End
		for _, w := range c.Words {
			cw := word{literal: w.Literal, val: w.Value, off: p.at(w.Start), braced: w.Braced, body: p.sub(w.Span)}
			if w.Literal && !w.Braced && w.Value != cw.body.text {
				cw.body = piece{text: w.Value, base: cw.off, pinned: true}
			}
			for _, s := range w.Scripts {
				cw.scripts = append(cw.scripts, p.sub(s))
			}
			cmds[i].words = append(cmds[i].words, cw)
		}
	}
	return cmds, syn.Err
}

// ignoreRules returns the rules a "# tkcheck:ignore" comment in the
// text before a command suppresses for it. Between two commands there
// are only separators and comments, so the marker is in a comment.
func ignoreRules(gap string) []string {
	i := strings.LastIndex(gap, "tkcheck:ignore")
	if i < 0 {
		return nil
	}
	rest, _, _ := strings.Cut(gap[i+len("tkcheck:ignore"):], "\n")
	if rules := strings.Fields(rest); len(rules) > 0 {
		return rules
	}
	return []string{"all"}
}

func (l *linter) diagAt(off int, rule, msg string) {
	for _, s := range l.suppressed {
		if off >= s.start && off < s.end {
			for _, r := range s.rules {
				if r == "all" || r == rule {
					return
				}
			}
		}
	}
	var line, col int
	if l.posFn != nil {
		line, col = l.posFn(off)
	} else {
		line, col = lineCol(l.src, off)
	}
	l.diags = append(l.diags, Diag{File: l.file, Line: line, Col: col, Rule: rule, Msg: msg})
}

// collectDefs pre-scans a script for proc definitions, renames and
// widget creations so forward references from deferred scripts
// resolve. It recurses into every braced word and command
// substitution; a proc defined inside a bind body or an if arm still
// counts.
func (l *linter) collectDefs(p piece) {
	cmds, _ := p.parse()
	for _, c := range cmds {
		if len(c.words) >= 2 && c.words[0].literal {
			switch cmd := c.words[0].val; cmd {
			case "proc":
				if c.words[1].literal {
					l.procs[c.words[1].val] = true
				}
			case "rename":
				if len(c.words) >= 3 && c.words[2].literal && c.words[2].val != "" {
					l.procs[c.words[2].val] = true
				}
			default:
				if l.reg.widgets[cmd] != nil && c.words[1].literal {
					if class, ok := l.classes[c.words[1].val]; ok && class != cmd {
						cmd = ""
					}
					l.classes[c.words[1].val] = cmd
				}
			}
		}
		for _, w := range c.words {
			if w.braced {
				l.collectDefs(w.body)
			}
			for _, s := range w.scripts {
				l.collectDefs(s)
			}
		}
	}
}

// lintScript lints p as a script up to its first syntax error, as the
// interpreter runs it: the command the error cuts short is never
// invoked, but the [scripts] in it before the error still run.
func (l *linter) lintScript(p piece, mode lintMode) {
	cmds, err := p.parse()
	if err != nil {
		// Reported before the script's own ignore comments take effect:
		// a command that does not compile cannot be suppressed.
		l.diagAt(p.at(err.Offset), "parse", err.Msg)
	}
	for i, c := range cmds {
		if c.suppress != nil {
			l.suppressed = append(l.suppressed, suppression{rules: c.suppress, start: c.off, end: c.end})
		}
		// Command substitutions run regardless of which word they sit in.
		for _, w := range c.words {
			for _, s := range w.scripts {
				l.lintScript(s, modeScript)
			}
		}
		if err == nil || i < len(cmds)-1 {
			l.lintCommand(c, mode)
		}
	}
}

func (l *linter) lintCommand(c cmdNode, mode lintMode) {
	name := c.words[0]
	if !name.literal || name.val == "" {
		return // dynamically-named command; nothing to check
	}
	if strings.HasPrefix(name.val, ".") {
		l.lintPathCommand(c, mode)
		return
	}
	if !l.reg.Known(name.val) && !l.procs[name.val] {
		l.diagAt(name.off, "unknown-command", fmt.Sprintf("unknown command %q", name.val))
		return
	}
	if mode == modePrefix {
		return // arguments will be appended at run time
	}
	if row := l.reg.rows[name.val]; row != nil {
		if _, ok := l.arityOK(c, row); !ok {
			return
		}
	}
	if sp := l.reg.specs[name.val]; sp != nil {
		l.lintArgs(c, sp)
	}
}

// lintArgs checks a command's arguments as its spec describes them.
func (l *linter) lintArgs(c cmdNode, sp *spec) {
	for _, i := range sp.bindArgs {
		if i < len(c.words) {
			l.checkSequenceWord(c.words[i])
		}
		if i+1 < len(c.words) {
			l.lintBoundScript(c.words[i+1])
		}
	}
	for _, i := range sp.scriptArgs {
		if i < len(c.words) {
			l.lintDeferred(c.words[i], modeScript)
		}
	}
	for _, i := range sp.exprArgs {
		if i < len(c.words) {
			l.lintExprWord(c.words[i])
		}
	}
	for _, i := range sp.pathArgs {
		if i < 0 { // every argument is a path (destroy)
			for _, w := range c.words[1:] {
				l.checkPathWord(w)
			}
		} else if i < len(c.words) {
			l.checkPathWord(c.words[i])
		}
	}
	if sp.check != nil {
		sp.check(l, c)
	}
}

// arityOK checks a command's argument count against its row, and for
// an ensemble, the subcommand its first argument names and that
// subcommand's count, and so on down the subcommand rows while the
// words are literal. It reports false when the command's own count is
// out of bounds, so its other checks would misread its words, and
// returns the names of the subcommands whose counts it found in
// bounds (" tag bind").
func (l *linter) arityOK(c cmdNode, row *tcl.Row) (checked string, ok bool) {
	name := c.words[0].val
	nargs := len(c.words) - 1
	if !row.Admits(nargs) {
		l.diagAt(c.words[0].off, "arity",
			fmt.Sprintf("wrong # args for %q: got %d, want %s", name, nargs, arityRange(row)))
		return "", false
	}
	subs := "" // the names of the subcommands down to row
	for i := 1; row.Subs != nil && i < len(c.words) && c.words[i].literal; i++ {
		sub := c.words[i].val
		s := row.Sub(sub)
		if s == nil {
			if row.Fn == nil {
				l.diagAt(c.words[i].off, "arity",
					fmt.Sprintf("bad option %q to %q%s: should be %s", sub, name, subs, row.SubNames()))
			}
			break
		}
		subs += " " + sub
		if n := len(c.words) - i - 1; !s.Admits(n) {
			l.diagAt(c.words[0].off, "arity",
				fmt.Sprintf("wrong # args for %q%s: got %d, want %s", name, subs, n, arityRange(s)))
			break
		}
		row, checked = s, subs
	}
	return checked, true
}

// lintPathCommand checks a command whose name is a widget path
// (".list insert end $i"): path syntax, its words against the rows of
// the path's class when the unit creates the path with literal words,
// and any literal -command option values.
func (l *linter) lintPathCommand(c cmdNode, mode lintMode) {
	name := c.words[0]
	l.checkPathWord(name)
	if mode == modePrefix {
		return
	}
	class := l.classes[name.val]
	row := l.reg.widgets[class]
	if row == nil {
		row = &anyWidget
	}
	subs, ok := l.arityOK(c, row)
	if !ok {
		return
	}
	if sp := l.reg.subSpecs[class+subs]; sp != nil {
		l.lintArgs(c, sp)
	}
	// "configure" takes a single option to query it, or name/value
	// pairs to set; any other odd count is an error at run time.
	if c.words[1].literal && c.words[1].val == "configure" {
		if n := len(c.words) - 2; n > 1 && n%2 != 0 {
			l.diagAt(c.words[1].off, "options",
				fmt.Sprintf("configure options for %q must come in name/value pairs", name.val))
		}
	}
	l.lintCommandOptions(c, 2, prefixCommandClasses[class])
}

// lintCommandOptions scans words[from:] for literal "-command ..."
// pairs and lints the value as a deferred script (or prefix).
func (l *linter) lintCommandOptions(c cmdNode, from int, prefix bool) {
	for i := from; i < len(c.words)-1; i++ {
		if !c.words[i].literal {
			continue
		}
		opt := c.words[i].val
		if opt == "-command" {
			mode := modeScript
			if prefix {
				mode = modePrefix
			}
			l.lintDeferred(c.words[i+1], mode)
			i++
		} else if prefixOptions[opt] {
			l.lintDeferred(c.words[i+1], modePrefix)
			i++
		}
	}
}

// checkSequenceWord checks a literal binding sequence with the
// toolkit's own parser, and reports the error bind would raise.
func (l *linter) checkSequenceWord(w word) {
	if !w.literal {
		return
	}
	if err := tk.CheckSequence(w.val); err != nil {
		l.diagAt(w.off, "binding", err.Error())
	}
}

// lintBoundScript lints a word's value as a script to bind. A leading
// "+" appends the script to the one bound before and is not part of
// it.
func (l *linter) lintBoundScript(w word) {
	if w.literal && strings.HasPrefix(w.body.text, "+") {
		l.lintScript(w.body.sub(tcl.Span{Start: 1, End: len(w.body.text)}), modeScript)
		return
	}
	l.lintDeferred(w, modeScript)
}

// lintDeferred lints a word's value as a deferred script. Dynamic
// words cannot be checked.
func (l *linter) lintDeferred(w word, mode lintMode) {
	if w.literal {
		l.lintScript(w.body, mode)
	}
}

// lintExprWord syntax-checks a word used as an expression. Dynamic
// words are still checked structurally, as written: $var and [cmd] are
// valid operands ("if $argc>0 ..."), and the word's own [scripts] are
// linted as the word's.
func (l *linter) lintExprWord(w word) {
	if w.body.text != "" {
		l.lintExpr(w.body, w.literal)
	}
}

// lintExpr syntax-checks p as an expression and, when scripts is set,
// lints the [scripts] among its operands.
func (l *linter) lintExpr(p piece, scripts bool) {
	spans, err := tcl.CheckExpr(p.text)
	if err != nil {
		l.diagAt(p.at(err.Offset), "expr", "expression syntax error: "+err.Msg)
		return
	}
	if scripts {
		for _, s := range spans {
			l.lintScript(p.sub(s), modeScript)
		}
	}
}

// checkPathWord validates widget path-name syntax (".a.b"): paths start
// with "." and have no empty components.
func (l *linter) checkPathWord(w word) {
	if !w.literal {
		return
	}
	p := w.val
	if !strings.HasPrefix(p, ".") {
		return // not path-shaped; other values ("none") are legal in some positions
	}
	if p == "." {
		return
	}
	for _, comp := range strings.Split(p[1:], ".") {
		if comp == "" {
			l.diagAt(w.off, "path", fmt.Sprintf("bad window path name %q", p))
			return
		}
	}
}

func arityRange(row *tcl.Row) string {
	if row.Max < 0 {
		return fmt.Sprintf("at least %d", row.Min)
	}
	if row.Min == row.Max {
		return strconv.Itoa(row.Min)
	}
	return fmt.Sprintf("%d to %d", row.Min, row.Max)
}

// checkIf walks the if/elseif/else structure: conditions are
// expressions, bodies are scripts, "then"/"else" noise words allowed.
func checkIf(l *linter, c cmdNode) {
	w := c.words
	i := 1
	for {
		if i >= len(w) {
			return
		}
		l.lintExprWord(w[i]) // condition
		i++
		if i < len(w) && w[i].literal && w[i].val == "then" {
			i++
		}
		if i >= len(w) {
			l.diagAt(c.off, "arity", `"if" is missing a body after its condition`)
			return
		}
		l.lintDeferred(w[i], modeScript) // then-body
		i++
		if i >= len(w) {
			return
		}
		if w[i].literal && w[i].val == "elseif" {
			i++
			continue
		}
		if w[i].literal && w[i].val == "else" {
			i++
		}
		if i >= len(w) {
			l.diagAt(c.off, "arity", `"if" is missing its else body`)
			return
		}
		l.lintDeferred(w[i], modeScript) // else-body
		if i != len(w)-1 {
			l.diagAt(w[i+1].off, "arity", `extra arguments after "if" else body`)
		}
		return
	}
}

// checkAfter checks "after ms ?script?" and "after idle script": the
// milliseconds value and the deferred script. The rows check "after
// cancel id".
func checkAfter(l *linter, c cmdNode) {
	w := c.words
	if len(w) < 2 || !w[1].literal || w[1].val == "cancel" {
		return
	}
	if _, err := strconv.Atoi(w[1].val); err != nil && w[1].val != "idle" {
		l.diagAt(w[1].off, "arity", fmt.Sprintf("bad milliseconds value %q to after", w[1].val))
		return
	}
	if len(w) == 3 {
		l.lintDeferred(w[2], modeScript)
	}
}

// checkEval lints "eval {script}" when given a single literal argument;
// multi-argument eval concatenates at run time and cannot be checked.
func checkEval(l *linter, c cmdNode) {
	if len(c.words) == 2 {
		l.lintDeferred(c.words[1], modeScript)
	}
}

// checkExprCmd syntax-checks expr's arguments. A single argument is
// checked in place; multiple literal arguments are joined as expr
// itself joins them, with errors reported at the first argument.
func checkExprCmd(l *linter, c cmdNode) {
	if len(c.words) == 2 {
		l.lintExprWord(c.words[1])
		return
	}
	parts := make([]string, 0, len(c.words)-1)
	for _, w := range c.words[1:] {
		if !w.literal {
			return // dynamic pieces; skip
		}
		parts = append(parts, w.val)
	}
	l.lintExpr(piece{text: strings.Join(parts, " "), base: c.words[1].off, pinned: true}, true)
}

// checkSend lints "send app {script}": a single literal script argument
// is linted fully; the multi-argument form joins at run time.
func checkSend(l *linter, c cmdNode) {
	if len(c.words) == 3 {
		l.lintDeferred(c.words[2], modeScript)
	}
}

// checkSelection lints "selection handle window command".
func checkSelection(l *linter, c cmdNode) {
	w := c.words
	if len(w) == 4 && w[1].literal && w[1].val == "handle" {
		l.checkPathWord(w[2])
		l.lintDeferred(w[3], modeScript)
	}
}

// checkWidgetCreate checks widget-creation commands: the new window's
// path name, name/value option pairing, and deferred -command values
// (a full script for buttons and menus, a prefix for scrollbars and
// scales, whose widgets append arguments).
func checkWidgetCreate(l *linter, c cmdNode) {
	w := c.words
	class := w[0].val
	if w[1].literal {
		if !strings.HasPrefix(w[1].val, ".") {
			l.diagAt(w[1].off, "path", fmt.Sprintf("bad window path name %q", w[1].val))
		} else {
			l.checkPathWord(w[1])
		}
	}
	if n := len(w) - 2; n%2 != 0 {
		l.diagAt(w[0].off, "options",
			fmt.Sprintf("%s options must come in name/value pairs", class))
	}
	l.lintCommandOptions(c, 2, prefixCommandClasses[class])
}
