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
// paper). args[0] is the command name as invoked. The returned string is
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

// command holds a registered command: either a Go procedure or a Tcl proc.
type command struct {
	fn   CmdFunc
	proc *procDef // non-nil when the command is a Tcl procedure
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
	traces []VarTrace
}

// VarTrace is a variable trace callback, invoked after writes and before
// reads or unsets depending on the ops it was registered for.
type VarTrace struct {
	Ops string // subset of "rwu"
	Fn  func(in *Interp, name, index, op string)
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

// New creates an interpreter with all built-in commands registered.
func New() *Interp {
	in := &Interp{cmds: make(map[string]*command, 96)}
	in.frames = []*frame{{vars: make(map[string]*Var), level: 0}}
	registerCore(in)
	registerList(in)
	registerString(in)
	registerExprCmd(in)
	registerInfo(in)
	registerIO(in)
	registerArray(in)
	registerRegexp(in)
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

// Register installs an application-specific command, replacing any
// existing command with the same name. Per the paper, application commands
// are indistinguishable from built-ins once registered.
func (in *Interp) Register(name string, fn CmdFunc) {
	in.cmds[name] = &command{fn: fn}
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
	res, err := cmd.fn(in, words)
	if err != nil {
		if te, ok := err.(*Error); ok && te.Code == ErrorStatus && te.Info == "" {
			te.Info = fmt.Sprintf("%s\n    while executing\n%q", te.Msg, strings.Join(words, " "))
		}
		return "", err
	}
	return res, nil
}
