// Package tcl implements an interpreter for the Tcl command language as
// described in Ousterhout's "Tcl: An Embeddable Command Language" (USENIX
// Winter 1990) and used as the substrate of the Tk toolkit paper (USENIX
// Winter 1991).
//
// The interpreter follows the string-only data model of the original
// system: every value — command arguments, results, variables — is a Go
// string. Unlike the original, it does not re-parse a script each time
// it runs it. A script compiles once to a flat token array (parse.go)
// and an expression to a postfix operator tree (expr.go); an executor
// substitutes and invokes the compiled form. Compiled forms depend only
// on their text, so nothing ever invalidates them. A proc body compiles
// on its first call and is kept with the proc. Every other script and
// expression goes through one per-interpreter cache keyed by text. The
// cache admits a text only the second time it is seen, so one-shot
// scripts stay out, and it is discarded whole when it fills.
//
// Tools read Tcl through the same compiler (syntax.go): Parse and
// CheckExpr turn on a table of source offsets kept beside the tokens,
// Complete tells a shell whether a command is finished, and none of them
// evaluates anything, so a linter or a shell sees exactly the commands,
// words and syntax errors evaluation would.
//
// The package is self-contained: it has no knowledge of windows or X.
// Applications embed it exactly as Figure 6 of the Tk paper shows: create
// an Interp, register application-specific commands with Register, and
// pass command strings to Eval.
package tcl

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
)

// Status is the completion code of a script or command evaluation,
// mirroring the classic TCL_OK/TCL_ERROR/TCL_RETURN/TCL_BREAK/TCL_CONTINUE
// codes.
type Status int

// Completion codes.
const (
	OK Status = iota
	ErrorStatus
	ReturnStatus
	BreakStatus
	ContinueStatus
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case ErrorStatus:
		return "error"
	case ReturnStatus:
		return "return"
	case BreakStatus:
		return "break"
	case ContinueStatus:
		return "continue"
	}
	return fmt.Sprintf("status-%d", int(s))
}

// Error is the error type produced by the interpreter. Code distinguishes
// genuine errors from the control-flow signals (break, continue, return)
// that propagate through Eval as errors until a looping command or
// procedure invocation consumes them.
type Error struct {
	Code Status // ErrorStatus, ReturnStatus, BreakStatus or ContinueStatus
	Msg  string // the interpreter result associated with the error
	Info string // accumulated stack trace (errorInfo)
}

func (e *Error) Error() string { return e.Msg }

// errf builds an ErrorStatus *Error.
func errf(format string, args ...any) *Error {
	return &Error{Code: ErrorStatus, Msg: fmt.Sprintf(format, args...)}
}

// Control-flow sentinels. They carry no message; loops intercept them.
var (
	errBreak    = &Error{Code: BreakStatus, Msg: `invoked "break" outside of a loop`}
	errContinue = &Error{Code: ContinueStatus, Msg: `invoked "continue" outside of a loop`}
)

// returnError signals "return" from within a procedure body. The
// interpreter keeps the one a return leaves (Interp.ret), as Tcl's C
// interface leaves a return's value in the interpreter result.
type returnError struct {
	value string
	code  Status // code requested via "return -code"; usually OK
}

func (r *returnError) Error() string { return r.value }

// outcome is what a return amounts to where it ends, as Tcl's
// TclUpdateReturnInfo computes it: its value, or with a -code other
// than ok, an *Error of that code.
func (r *returnError) outcome() (string, error) {
	if r.code == OK {
		return r.value, nil
	}
	return "", &Error{Code: r.code, Msg: r.value}
}

// CmdFunc is the signature of a command procedure (Figure 6 of the Tk
// paper). args[0] is the command name as invoked, and for a subcommand,
// args[1] is its name. The returned string is
// the command result; a non-nil error aborts the script unless it is a
// control-flow signal.
//
// As a command procedure's argv is in Tcl's C interface, args and every
// subslice of it are valid only during the call: the interpreter takes
// the words from a stack it reuses, and clears them once the command
// returns. The strings themselves stay valid, since Go strings are
// immutable, so a command that keeps a word keeps the string, and one
// that keeps a list of words copies the slice (slices.Clone). Appending
// to args reallocates it, so a command may build on it.
type CmdFunc func(in *Interp, args []string) (string, error)

// A Row is one row of an interpreter's command table: a command's
// name and procedure, the bounds on its argument count and the usage a
// count outside them reports. The interpreter checks the count before
// it calls the procedure, so a procedure never checks it again, and
// tools such as cmd/tkcheck read the same rows.
//
// Subs make the command an ensemble: its first argument names the
// subcommand whose row runs, and whose bounds count the arguments after
// that word. A subcommand row may have Subs of its own, and then the
// word after its name picks one of them, and so on down. A subcommand
// named "" runs when the command is called with no argument. When the
// first argument names no subcommand, Fn runs if the row has one;
// otherwise the call fails with a message that lists the names, in the
// order of the rows.
type Row struct {
	Name string
	Fn   CmdFunc
	// Min and Max bound the number of arguments; Max < 0 means no
	// upper bound.
	Min, Max int
	// Usage shows the arguments, as "wrong # args" quotes them after
	// the command's name and the names of the subcommands above them.
	Usage string
	Subs  []Row
}

// command is a registered command: its row, and for a Tcl procedure,
// the procedure.
type command struct {
	*Row
	proc *procDef // non-nil when the command is a Tcl procedure
}

// Admits reports whether n arguments are within the row's bounds.
func (r *Row) Admits(n int) bool { return n >= r.Min && (r.Max < 0 || n <= r.Max) }

// resolve returns the row whose procedure runs the call words make: r,
// or for an ensemble, the row of the subcommand the first argument
// names, or of the subcommand below it the next word names, and so on.
// A call the rows do not admit gets their error instead, which names
// every word up to the one that failed.
func (r *Row) resolve(words []string) (*Row, error) {
	depth := 1 // words[:depth] name r
	for {
		word := ""
		if depth < len(words) {
			word = words[depth]
		}
		s := r.Sub(word)
		if s == nil {
			if !r.Admits(len(words) - depth) {
				return nil, wrongArgs(append(words[:depth:depth], r.Usage)...)
			}
			if r.Subs != nil && r.Fn == nil {
				return nil, r.badOption(word)
			}
			return r, nil
		}
		r, depth = s, min(depth+1, len(words))
	}
}

// badOption is the error of an ensemble called with a first argument
// that names none of its subcommands.
func (r *Row) badOption(word string) *Error {
	return errf("bad option %q: should be %s", word, r.SubNames())
}

// Sub returns the row of the subcommand called name, or nil.
func (r *Row) Sub(name string) *Row {
	for i := range r.Subs {
		if r.Subs[i].Name == name {
			return &r.Subs[i]
		}
	}
	return nil
}

// SubNames lists an ensemble's subcommand names, in the order of its
// rows, as Tcl's messages do: "a", "a or b", "a, b, or c".
func (r *Row) SubNames() string {
	var names []string
	for _, s := range r.Subs {
		if s.Name != "" {
			names = append(names, s.Name)
		}
	}
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	last := names[len(names)-1]
	if len(names) == 2 {
		return names[0] + " or " + last
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + last
}

// wrongArgs is the error of a call its row's bounds or usage do not
// admit: the words are the command's name, the names of the
// subcommands down to the row, and the row's usage, of which any but
// the first may be empty.
func wrongArgs(words ...string) *Error {
	return errf("wrong # args: should be %q", strings.Join(slices.DeleteFunc(words, func(w string) bool { return w == "" }), " "))
}

// usage is the error of a call whose words pass its row's bounds but
// not its usage, as "if 1 then" does.
func (in *Interp) usage(args []string) *Error {
	u := ""
	if c, ok := in.cmds[args[0]]; ok { // a script may have renamed it away
		u = c.Usage
	}
	return wrongArgs(args[0], u)
}

// procDef is a Tcl procedure created with "proc".
type procDef struct {
	name    string
	formals []procArg
	body    string
	code    []token // body, compiled on the first call
}

type procArg struct {
	name     string
	def      string
	hasDef   bool
	isVarArg bool // the final "args" formal
}

// Var is a Tcl variable: a scalar, an array, or an upvar link.
type Var struct {
	value  string
	array  map[string]string
	isArr  bool
	link   *Var // non-nil when this frame slot is an upvar alias
	traces []*VarTrace
}

// VarTrace is a variable trace, invoked after writes and before reads
// or unsets depending on the ops it was registered for. Go code's traces
// call Fn; one that "trace variable" set evaluates its command instead.
// TraceVar returns it as the handle UntraceVar takes.
type VarTrace struct {
	Ops    string // subset of "rwu"
	Fn     func(in *Interp, name, index, op string)
	script string // the command of a trace set by "trace variable"
	v      *Var   // the variable that carries the trace
}

// frame is one procedure call frame (level 0 is global). callProc
// takes a procedure's frame from the interpreter's free list and puts
// it back, its map cleared, when the call returns; nothing else keeps
// a frame, and upvar links point at a Var, which is never reused.
type frame struct {
	vars  map[string]*Var
	level int
}

// Interp is a Tcl interpreter: a command table plus a stack of variable
// frames. It is not safe for concurrent use by multiple goroutines; Tk
// serializes all access through its event loop, as the original did.
type Interp struct {
	cmds   map[string]*command
	frames []*frame // frames[0] is the global frame

	// Out receives output from puts/print. Defaults to os.Stdout via the
	// io commands; tests redirect it.
	Out interface{ Write(p []byte) (int, error) }

	// ExitHandler, when set, intercepts the exit command (Tk sets it so
	// that exit tears down windows first). When nil, exit calls os.Exit.
	ExitHandler func(code int)

	// Trace, when set, observes every command invocation with its fully
	// substituted words, before execution (tclsh -trace uses it to log
	// command history). As with a CmdFunc's args, words is valid only
	// during the call.
	Trace func(words []string)

	nesting  int   // depth of recursive evaluation
	cmdCount int64 // commands invoked, for info cmdcount

	// ret holds the value and code of the last return. The command
	// returns a pointer to it, which callProc and catch consume; a
	// caller outside the interpreter gets a copy (own).
	ret returnError

	// argv is the word stack: run pushes each command's words as it
	// substitutes them, above those of the commands still running, and
	// clears and pops them when the command returns or a word fails.
	// freeFrames holds call frames for callProc to reuse (see frame).
	argv       []string
	freeFrames []*frame

	// cache holds compiled scripts and expressions by text; seen records
	// the hashes of texts seen once (see admit); scratch is a spare token
	// buffer (see Eval).
	cache    map[string]compiled
	seen     [seenSlots]uint64
	seenNext uint
	scratch  []token

	// lists holds the lists parsed last, and listNext the slot the
	// next one takes (see list); appendBuf holds the value append and
	// lappend wrote last (see appendVar).
	lists     [listSlots]listSlot
	listNext  int
	appendBuf strings.Builder

	// deleted is set by Delete; evaluation fails afterwards.
	deleted bool
}

// builtins are the tables of the built-in commands' rows. Every
// interpreter shares them.
var builtins = [][]Row{coreCommands, listCommands, stringCommands, regexpCommands, infoCommands, ioCommands}

// Builtins returns the rows of the commands New registers. It exists so
// tools such as cmd/tkcheck can read the command set without an
// interpreter.
func Builtins() []Row { return slices.Concat(builtins...) }

// New creates an interpreter with all built-in commands registered.
func New() *Interp {
	in := &Interp{cmds: make(map[string]*command, 96)}
	in.frames = []*frame{{vars: make(map[string]*Var), level: 0}}
	for _, rows := range builtins {
		in.Define(rows...)
	}
	in.initEnv()
	return in
}

// Delete marks the interpreter dead; subsequent Eval calls fail. It exists
// so applications embedding the interpreter can tear it down while Tcl
// commands may still hold references (as Tk does when a main window is
// destroyed).
func (in *Interp) Delete() { in.deleted = true }

// Deleted reports whether Delete has been called.
func (in *Interp) Deleted() bool { return in.deleted }

// Define installs commands by their rows, each replacing any existing
// command with the same name. The interpreter keeps the rows, which
// must not change afterwards.
func (in *Interp) Define(rows ...Row) {
	for i := range rows {
		in.cmds[rows[i].Name] = &command{Row: &rows[i]}
	}
}

// Register installs an application-specific command with no bounds on
// its arguments, replacing any existing command with the same name.
// Per the paper, application commands are indistinguishable from
// built-ins once registered.
func (in *Interp) Register(name string, fn CmdFunc) {
	in.Define(Row{Name: name, Fn: fn, Max: -1})
}

// Unregister removes a command. It reports whether the command existed.
func (in *Interp) Unregister(name string) bool {
	if _, ok := in.cmds[name]; !ok {
		return false
	}
	delete(in.cmds, name)
	return true
}

// HasCommand reports whether name is currently a registered command.
func (in *Interp) HasCommand(name string) bool {
	_, ok := in.cmds[name]
	return ok
}

// CommandNames returns the names of all registered commands, unordered.
func (in *Interp) CommandNames() []string {
	names := make([]string, 0, len(in.cmds))
	for n := range in.cmds {
		names = append(names, n)
	}
	return names
}

// current returns the active variable frame.
func (in *Interp) current() *frame { return in.frames[len(in.frames)-1] }

// global returns the global frame.
func (in *Interp) global() *frame { return in.frames[0] }

// Eval executes script as the outermost level of evaluation, returning
// the result of the last command executed. A return ends the script
// with its value; a return with a -code other than ok, and a break or
// continue, surfaces as an *Error with the corresponding Code.
func (in *Interp) Eval(script string) (string, error) {
	return in.finish(in.eval(script))
}

// GlobalEval executes script in the global frame, whatever procedure is
// running, as Tcl_GlobalEval does, and as the outermost level of
// evaluation, as Eval does. Tk runs the scripts events trigger
// (bindings, after, widget callbacks, send) this way.
func (in *Interp) GlobalEval(script string) (string, error) {
	return in.finish(in.atLevel(0, func() (string, error) { return in.eval(script) }))
}

// eval is Eval for the interpreter's own commands: the error a return
// leaves stays the interpreter's (in.ret), for callProc or catch to
// consume.
func (in *Interp) eval(script string) (string, error) {
	code, kept := in.compiledScript(script)
	res, err := in.evalCode(code)
	if !kept && cap(code) <= scratchMax {
		// Nothing refers to the tokens once they have run.
		in.scratch = code[:0]
	}
	return res, err
}

// own hands a caller outside the interpreter an error of its own: the
// error a return leaves is in.ret, which the next return overwrites, so
// that caller gets a copy.
func (in *Interp) own(err error) error {
	if err == &in.ret {
		ret := in.ret
		return &ret
	}
	return err
}

// finish ends a script at a return that left it, as Tcl_Eval does at
// the outermost level and Tcl_EvalFile at the end of a file: the
// script's outcome is the return's.
func (in *Interp) finish(res string, err error) (string, error) {
	if err == &in.ret {
		return in.ret.outcome()
	}
	return res, err
}

// evalCode runs compiled commands one nesting level down.
func (in *Interp) evalCode(code []token) (string, error) {
	if in.deleted {
		return "", errf("attempt to use deleted interpreter")
	}
	in.nesting++
	defer func() { in.nesting-- }()
	if in.nesting > maxNesting {
		return "", errf(nestingMsg)
	}
	return in.run(code)
}

// The cache bounds: the cache is discarded when it holds cacheMax texts,
// first sightings are recorded in seenSlots hash slots, and Eval reuses
// the token buffer of a script it did not keep when the buffer holds at
// most scratchMax tokens. cacheMax is six times the largest set of
// recurring texts among tkbench's workloads (20, in the tcl workload);
// a deck of slides that eval distinct strings cycles through it instead.
const (
	cacheMax   = 128
	seenSlots  = 64
	scratchMax = 64
)

// compiled is a cache entry: a text's compiled forms as a script and as
// an expression, each built when first needed.
type compiled struct {
	script []token
	expr   *exprCode
}

var cacheSeed = maphash.MakeSeed()

// compiledScript returns text compiled as a script, and whether the
// cache keeps it.
func (in *Interp) compiledScript(text string) (code []token, kept bool) {
	c, ok := in.cache[text]
	if c.script != nil {
		return c.script, true
	}
	code = compileScript(text, in.scratch)
	if !in.admit(text, ok) {
		in.scratch = nil // code may be using it; Eval hands it back
		return code, false
	}
	// A kept form drops the spare capacity it was built with.
	c.script = slices.Clone(code)
	in.cache[text] = c
	return c.script, true
}

// compiledExpr returns text compiled as an expression.
func (in *Interp) compiledExpr(text string) exprCode {
	c, ok := in.cache[text]
	if c.expr != nil {
		return *c.expr
	}
	x := compileExpr(text)
	if in.admit(text, ok) {
		c.expr = &exprCode{nodes: slices.Clone(x.nodes), toks: slices.Clone(x.toks), err: x.err}
		in.cache[text] = c
	}
	return x
}

// admit reports whether the cache should keep a compiled form of text;
// cached says whether it already holds text in its other form. The
// cache admits a text only the second time it is seen, so one-shot
// scripts, such as %-substituted bindings, do not displace the loop
// bodies and callbacks that run again and again. First sightings go
// round a ring of hashes, so any text seen again within seenSlots
// first sightings is admitted.
func (in *Interp) admit(text string, cached bool) bool {
	if cached {
		return true
	}
	h := maphash.String(cacheSeed, text)
	if !slices.Contains(in.seen[:], h) {
		in.seen[in.seenNext%seenSlots] = h
		in.seenNext++
		return false
	}
	if in.cache == nil || len(in.cache) >= cacheMax {
		in.cache = make(map[string]compiled)
	}
	return true
}

// invoke dispatches one fully substituted command.
func (in *Interp) invoke(words []string) (string, error) {
	in.cmdCount++
	if in.Trace != nil {
		in.Trace(words)
	}
	cmd, ok := in.cmds[words[0]]
	if !ok {
		return "", errf("invalid command name %q", words[0])
	}
	// Most calls name a command that is no ensemble, within its bounds;
	// resolve finds an ensemble's subcommand and builds the errors.
	row := cmd.Row
	var err error
	if row.Subs != nil || !row.Admits(len(words)-1) {
		row, err = row.resolve(words)
	}
	var res string
	if err == nil {
		res, err = row.Fn(in, words)
	}
	if err != nil {
		if te, ok := err.(*Error); ok && te.Code == ErrorStatus && te.Info == "" {
			te.Info = fmt.Sprintf("%s\n    while executing\n%q", te.Msg, strings.Join(words, " "))
		}
		return "", err
	}
	return res, nil
}
