package tcl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// registerCore installs variable, control-flow and procedure commands.
func registerCore(in *Interp) {
	in.Register("set", cmdSet)
	in.Register("unset", cmdUnset)
	in.Register("incr", cmdIncr)
	in.Register("append", cmdAppend)
	in.Register("proc", cmdProc)
	in.Register("return", cmdReturn)
	in.Register("break", func(*Interp, []string) (string, error) { return "", errBreak })
	in.Register("continue", func(*Interp, []string) (string, error) { return "", errContinue })
	in.Register("if", cmdIf)
	in.Register("while", cmdWhile)
	in.Register("for", cmdFor)
	in.Register("foreach", cmdForeach)
	in.Register("switch", cmdSwitch)
	in.Register("case", cmdCase)
	in.Register("catch", cmdCatch)
	in.Register("error", cmdError)
	in.Register("eval", cmdEval)
	in.Register("subst", cmdSubst)
	in.Register("global", cmdGlobal)
	in.Register("upvar", cmdUpvar)
	in.Register("uplevel", cmdUplevel)
	in.Register("rename", cmdRename)
	in.Register("time", cmdTime)
	in.Register("trace", cmdTrace)
}

func arity(args []string, min, max int, usage string) error {
	n := len(args) - 1
	if n < min || (max >= 0 && n > max) {
		return errf("wrong # args: should be %q", args[0]+" "+usage)
	}
	return nil
}

func cmdSet(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "varName ?newValue?"); err != nil {
		return "", err
	}
	if len(args) == 2 {
		return in.GetVar(args[1])
	}
	return in.SetVar(args[1], args[2])
}

func cmdUnset(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "varName ?varName ...?"); err != nil {
		return "", err
	}
	for _, name := range args[1:] {
		if err := in.UnsetVar(name); err != nil {
			return "", err
		}
	}
	return "", nil
}

func cmdIncr(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "varName ?increment?"); err != nil {
		return "", err
	}
	cur, err := in.GetVar(args[1])
	if err != nil {
		return "", err
	}
	ival, err := strconv.ParseInt(strings.TrimSpace(cur), 0, 64)
	if err != nil {
		return "", errf("expected integer but got %q", cur)
	}
	delta := int64(1)
	if len(args) == 3 {
		delta, err = strconv.ParseInt(strings.TrimSpace(args[2]), 0, 64)
		if err != nil {
			return "", errf("expected integer but got %q", args[2])
		}
	}
	return in.SetVar(args[1], strconv.FormatInt(ival+delta, 10))
}

func cmdAppend(in *Interp, args []string) (string, error) {
	return in.appendVar(args, false)
}

// appendVar implements append and, with list set, lappend. It writes
// into the interpreter's append buffer. When the variable still holds
// the buffer's last string, compared by content, the buffer extends it
// in place, so a loop that appends to one variable copies its value
// only when the buffer grows; otherwise the buffer restarts from the
// variable's value. A strings.Builder never rewrites bytes it has
// handed out, so earlier values stay as they were.
func (in *Interp) appendVar(args []string, list bool) (string, error) {
	if err := arity(args, 1, -1, "varName ?value value ...?"); err != nil {
		return "", err
	}
	cur := ""
	if in.VarExists(args[1]) {
		var err error
		if cur, err = in.GetVar(args[1]); err != nil {
			return "", err
		}
	}
	b := &in.appendBuf
	if cur != b.String() {
		b.Reset()
		b.WriteString(cur)
	}
	for _, v := range args[2:] {
		if list {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			v = QuoteElement(v)
		}
		b.WriteString(v)
	}
	return in.SetVar(args[1], b.String())
}

func cmdProc(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3, "name args body"); err != nil {
		return "", err
	}
	name, argList, body := args[1], args[2], args[3]
	formalSpecs, err := ParseList(argList)
	if err != nil {
		return "", err
	}
	def := &procDef{name: name, body: body}
	for i, spec := range formalSpecs {
		parts, err := ParseList(spec)
		if err != nil || len(parts) == 0 || len(parts) > 2 {
			return "", errf("procedure %q has argument with bad format %q", name, spec)
		}
		arg := procArg{name: parts[0]}
		if len(parts) == 2 {
			arg.def = parts[1]
			arg.hasDef = true
		}
		if parts[0] == "args" && i == len(formalSpecs)-1 {
			arg.isVarArg = true
		}
		def.formals = append(def.formals, arg)
	}
	in.cmds[name] = &command{proc: def, fn: func(in *Interp, args []string) (string, error) {
		return in.callProc(def, args)
	}}
	return "", nil
}

// The free list of call frames holds at most maxFreeFrames, and a
// frame whose map held more than maxFrameVars variables is dropped
// rather than kept, since a cleared map keeps its size.
const (
	maxFreeFrames = 8
	maxFrameVars  = 32
)

// callProc pushes a frame, binds formals, and evaluates a procedure body.
func (in *Interp) callProc(def *procDef, args []string) (string, error) {
	f := in.pushFrame(len(def.formals) + 4)
	defer in.popFrame(f)
	actuals := args[1:]
	ai := 0
	for _, formal := range def.formals {
		if formal.isVarArg {
			f.vars["args"] = &Var{value: FormatList(actuals[ai:])}
			ai = len(actuals)
			break
		}
		switch {
		case ai < len(actuals):
			f.vars[formal.name] = &Var{value: actuals[ai]}
			ai++
		case formal.hasDef:
			f.vars[formal.name] = &Var{value: formal.def}
		default:
			return "", errf(`no value given for parameter "%s" to "%s"`, formal.name, def.name)
		}
	}
	if ai < len(actuals) {
		return "", errf(`called "%s" with too many arguments`, def.name)
	}

	if def.code == nil {
		def.code = slices.Clone(compileScript(def.body, in.scratch))
	}
	res, err := in.evalCode(def.code)
	if err != nil {
		if re, ok := err.(*returnError); ok {
			return re.outcome()
		}
		if te, ok := err.(*Error); ok {
			switch te.Code {
			case BreakStatus, ContinueStatus:
				return "", errf(`invoked "%s" outside of a loop`, te.Code)
			case ErrorStatus:
				te.Info += fmt.Sprintf("\n    (procedure %q line ?)", def.name)
			}
		}
		return "", err
	}
	return res, nil
}

// pushFrame makes a procedure frame current, taking it from the free
// list when it holds one; hint sizes a new frame's map.
func (in *Interp) pushFrame(hint int) *frame {
	var f *frame
	if n := len(in.freeFrames); n > 0 {
		f = in.freeFrames[n-1]
		in.freeFrames[n-1] = nil
		in.freeFrames = in.freeFrames[:n-1]
	} else {
		f = &frame{vars: make(map[string]*Var, hint)}
	}
	f.level = len(in.frames)
	in.frames = append(in.frames, f)
	return f
}

// popFrame removes f, the current frame, and puts it on the free list
// with its map cleared, unless the list is full or the map grew large.
func (in *Interp) popFrame(f *frame) {
	in.frames[len(in.frames)-1] = nil
	in.frames = in.frames[:len(in.frames)-1]
	if len(in.freeFrames) < maxFreeFrames && len(f.vars) <= maxFrameVars {
		clear(f.vars)
		in.freeFrames = append(in.freeFrames, f)
	}
}

func cmdReturn(in *Interp, args []string) (string, error) {
	code := OK
	rest := args[1:]
	for len(rest) >= 2 && strings.HasPrefix(rest[0], "-") {
		switch rest[0] {
		case "-code":
			switch rest[1] {
			case "ok", "0":
				code = OK
			case "error", "1":
				code = ErrorStatus
			case "return", "2":
				code = ReturnStatus
			case "break", "3":
				code = BreakStatus
			case "continue", "4":
				code = ContinueStatus
			default:
				return "", errf("bad completion code %q", rest[1])
			}
			rest = rest[2:]
		default:
			return "", errf("bad option %q to return", rest[0])
		}
	}
	val := ""
	if len(rest) > 0 {
		val = rest[0]
	}
	if len(rest) > 1 {
		return "", errf(`wrong # args: should be "return ?-code code? ?value?"`)
	}
	in.ret = returnError{value: val, code: code}
	return "", &in.ret
}

func cmdIf(in *Interp, args []string) (string, error) {
	// if expr ?then? body ?elseif expr ?then? body?... ?else? ?body?
	i := 1
	for {
		if i >= len(args) {
			return "", errf(`wrong # args: no expression after "%s" argument`, args[0])
		}
		cond, err := in.EvalBool(args[i])
		if err != nil {
			return "", err
		}
		i++
		if i < len(args) && args[i] == "then" {
			i++
		}
		if i >= len(args) {
			return "", errf(`wrong # args: no script following "%s" argument`, args[i-1])
		}
		if cond {
			return in.eval(args[i])
		}
		i++
		if i >= len(args) {
			return "", nil
		}
		switch args[i] {
		case "elseif":
			i++
			continue
		case "else":
			i++
			if i >= len(args) {
				return "", errf(`wrong # args: no script following "else" argument`)
			}
			return in.eval(args[i])
		default:
			// Implicit else body (old Tcl allowed it).
			return in.eval(args[i])
		}
	}
}

func cmdWhile(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2, "test command"); err != nil {
		return "", err
	}
	test := in.compiledExpr(args[1])
	body, _ := in.compiledScript(args[2])
	for {
		cond, err := in.truth(&test)
		if err != nil || !cond {
			return "", err
		}
		if err := in.loopBody(body); err != nil {
			return "", ignoreBreak(err)
		}
	}
}

// loopBody runs a loop body once; continue ends the iteration normally.
func (in *Interp) loopBody(body []token) error {
	_, err := in.evalCode(body)
	if te, ok := err.(*Error); ok && te.Code == ContinueStatus {
		return nil
	}
	return err
}

// ignoreBreak turns the break that ends a loop into success.
func ignoreBreak(err error) error {
	if te, ok := err.(*Error); ok && te.Code == BreakStatus {
		return nil
	}
	return err
}

func cmdFor(in *Interp, args []string) (string, error) {
	if err := arity(args, 4, 4, "start test next command"); err != nil {
		return "", err
	}
	if _, err := in.eval(args[1]); err != nil {
		return "", err
	}
	test := in.compiledExpr(args[2])
	next, _ := in.compiledScript(args[3])
	body, _ := in.compiledScript(args[4])
	for {
		cond, err := in.truth(&test)
		if err != nil || !cond {
			return "", err
		}
		if err := in.loopBody(body); err != nil {
			return "", ignoreBreak(err)
		}
		if _, err := in.evalCode(next); err != nil {
			return "", err
		}
	}
}

func cmdForeach(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3, "varList list command"); err != nil {
		return "", err
	}
	varNames, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	if len(varNames) == 0 {
		return "", errf("foreach varlist is empty")
	}
	items, err := in.list(args[2])
	if err != nil {
		return "", err
	}
	body, _ := in.compiledScript(args[3])
	for i := 0; i < len(items); i += len(varNames) {
		for vi, vn := range varNames {
			val := ""
			if i+vi < len(items) {
				val = items[i+vi]
			}
			if _, err := in.SetVar(vn, val); err != nil {
				return "", err
			}
		}
		if err := in.loopBody(body); err != nil {
			return "", ignoreBreak(err)
		}
	}
	return "", nil
}

func cmdSwitch(in *Interp, args []string) (string, error) {
	mode := "-glob"
	i := 1
	for i < len(args) && strings.HasPrefix(args[i], "-") {
		switch args[i] {
		case "-exact", "-glob":
			mode = args[i]
			i++
		case "--":
			i++
			goto body
		default:
			return "", errf("bad option %q: should be -exact, -glob or --", args[i])
		}
	}
body:
	if i >= len(args) {
		return "", errf(`wrong # args: should be "switch ?options? string pattern body ... ?default body?"`)
	}
	str := args[i]
	i++
	var pairs []string
	if len(args)-i == 1 {
		var err error
		pairs, err = ParseList(args[i])
		if err != nil {
			return "", err
		}
	} else {
		pairs = args[i:]
	}
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		return "", errf("extra switch pattern with no body")
	}
	for j := 0; j < len(pairs); j += 2 {
		pat, bodyStr := pairs[j], pairs[j+1]
		match := false
		if pat == "default" && j == len(pairs)-2 {
			match = true
		} else if mode == "-exact" {
			match = pat == str
		} else {
			match = GlobMatch(pat, str)
		}
		if !match {
			continue
		}
		// "-" bodies fall through to the next body.
		for bodyStr == "-" {
			j += 2
			if j >= len(pairs) {
				return "", errf(`no body specified for pattern "%s"`, pat)
			}
			bodyStr = pairs[j+1]
		}
		return in.eval(bodyStr)
	}
	return "", nil
}

// cmdCase implements the historical "case" command used in Tcl 6.x
// scripts: case string ?in? {pat body pat body ...} or inline pairs.
func cmdCase(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", errf(`wrong # args: should be "case string ?in? patList body ..."`)
	}
	str := args[1]
	rest := args[2:]
	if rest[0] == "in" {
		rest = rest[1:]
	}
	var pairs []string
	if len(rest) == 1 {
		var err error
		pairs, err = ParseList(rest[0])
		if err != nil {
			return "", err
		}
	} else {
		pairs = rest
	}
	if len(pairs)%2 != 0 {
		return "", errf("extra case pattern with no body")
	}
	var defaultBody string
	for j := 0; j < len(pairs); j += 2 {
		patList, body := pairs[j], pairs[j+1]
		if patList == "default" {
			defaultBody = body
			continue
		}
		pats, err := ParseList(patList)
		if err != nil {
			return "", err
		}
		for _, pat := range pats {
			if GlobMatch(pat, str) {
				return in.eval(body)
			}
		}
	}
	if defaultBody != "" {
		return in.eval(defaultBody)
	}
	return "", nil
}

func cmdCatch(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "command ?varName?"); err != nil {
		return "", err
	}
	res, err := in.eval(args[1])
	code := OK
	if err != nil {
		switch e := err.(type) {
		case *returnError:
			code = ReturnStatus
			res = e.value
		case *Error:
			code = e.Code
			res = e.Msg
		default:
			code = ErrorStatus
			res = err.Error()
		}
	}
	if len(args) == 3 {
		if _, serr := in.SetVar(args[2], res); serr != nil {
			return "", serr
		}
	}
	return strconv.Itoa(int(code)), nil
}

func cmdError(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 3, "message ?errorInfo? ?errorCode?"); err != nil {
		return "", err
	}
	e := errf("%s", args[1])
	if len(args) >= 3 && args[2] != "" {
		e.Info = args[2]
	}
	if len(args) >= 4 {
		_, _ = in.SetGlobal("errorCode", args[3])
	}
	return "", e
}

func cmdEval(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "arg ?arg ...?"); err != nil {
		return "", err
	}
	var script string
	if len(args) == 2 {
		script = args[1]
	} else {
		script = strings.Join(args[1:], " ")
	}
	return in.eval(script)
}

func cmdSubst(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1, "string"); err != nil {
		return "", err
	}
	return in.SubstituteAll(args[1])
}

func cmdGlobal(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "varName ?varName ...?"); err != nil {
		return "", err
	}
	if len(in.frames) == 1 {
		return "", nil // already global scope: no-op
	}
	for _, name := range args[1:] {
		if err := in.LinkVar(0, name, name); err != nil {
			return "", err
		}
	}
	return "", nil
}

// parseLevel interprets an upvar/uplevel level spec relative to the
// current frame. Returns the absolute frame index.
func (in *Interp) parseLevel(spec string) (int, bool) {
	cur := len(in.frames) - 1
	if strings.HasPrefix(spec, "#") {
		n, err := strconv.Atoi(spec[1:])
		if err != nil || n < 0 || n > cur {
			return 0, false
		}
		return n, true
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 0 || n > cur {
		return 0, false
	}
	return cur - n, true
}

func looksLikeLevel(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '#' {
		return true
	}
	return s[0] >= '0' && s[0] <= '9'
}

func cmdUpvar(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", errf(`wrong # args: should be "upvar ?level? otherVar localVar ?otherVar localVar ...?"`)
	}
	rest := args[1:]
	level := len(in.frames) - 2 // default: one level up
	if level < 0 {
		level = 0
	}
	if looksLikeLevel(rest[0]) && len(rest)%2 == 1 {
		var ok bool
		level, ok = in.parseLevel(rest[0])
		if !ok {
			return "", errf("bad level %q", rest[0])
		}
		rest = rest[1:]
	}
	if len(rest)%2 != 0 || len(rest) == 0 {
		return "", errf(`wrong # args: should be "upvar ?level? otherVar localVar ?otherVar localVar ...?"`)
	}
	for i := 0; i < len(rest); i += 2 {
		if err := in.LinkVar(level, rest[i], rest[i+1]); err != nil {
			return "", err
		}
	}
	return "", nil
}

func cmdUplevel(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", errf(`wrong # args: should be "uplevel ?level? command ?arg ...?"`)
	}
	rest := args[1:]
	level := len(in.frames) - 2
	if level < 0 {
		level = 0
	}
	if len(rest) > 1 && looksLikeLevel(rest[0]) {
		var ok bool
		level, ok = in.parseLevel(rest[0])
		if !ok {
			return "", errf("bad level %q", rest[0])
		}
		rest = rest[1:]
	}
	script := rest[0]
	if len(rest) > 1 {
		script = strings.Join(rest, " ")
	}
	return in.atLevel(level, func() (string, error) { return in.eval(script) })
}

func cmdRename(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2, "oldName newName"); err != nil {
		return "", err
	}
	old, new := args[1], args[2]
	cmd, ok := in.cmds[old]
	if !ok {
		return "", errf(`can't rename %q: command doesn't exist`, old)
	}
	if new == "" {
		delete(in.cmds, old)
		return "", nil
	}
	if _, exists := in.cmds[new]; exists {
		return "", errf(`can't rename to %q: command already exists`, new)
	}
	delete(in.cmds, old)
	in.cmds[new] = cmd
	return "", nil
}

func cmdTime(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "command ?count?"); err != nil {
		return "", err
	}
	count := 1
	if len(args) == 3 {
		n, err := strconv.Atoi(args[2])
		if err != nil || n <= 0 {
			return "", errf("expected positive integer but got %q", args[2])
		}
		count = n
	}
	start := time.Now()
	for i := 0; i < count; i++ {
		if _, err := in.eval(args[1]); err != nil {
			return "", err
		}
	}
	per := time.Since(start).Microseconds() / int64(count)
	return fmt.Sprintf("%d microseconds per iteration", per), nil
}

// cmdTrace implements variable traces:
//
//	trace variable name ops command
//	trace vdelete name ops command
//	trace vinfo name
func cmdTrace(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", errf(`wrong # args: should be "trace variable|vdelete|vinfo name ?ops command?"`)
	}
	switch args[1] {
	case "variable", "add":
		if len(args) != 5 {
			return "", errf(`wrong # args: should be "trace variable name ops command"`)
		}
		name, ops, script := args[2], args[3], args[4]
		for _, c := range ops {
			if c != 'r' && c != 'w' && c != 'u' {
				return "", errf("bad operations %q: should be one or more of rwu", ops)
			}
		}
		in.TraceVar(name, ops, func(in *Interp, nm, idx, op string) {
			cmd := script + " " + QuoteElement(nm) + " " + QuoteElement(idx) + " " + op
			_, _ = in.eval(cmd)
		})
		return "", nil
	case "vdelete":
		// Traces are removed wholesale from the variable.
		base, _, _ := splitVarName(args[2])
		if v := in.lookupVar(in.current(), base, false); v != nil {
			v.traces = nil
		}
		return "", nil
	case "vinfo":
		base, _, _ := splitVarName(args[2])
		v := in.lookupVar(in.current(), base, false)
		if v == nil {
			return "", nil
		}
		return strconv.Itoa(len(v.traces)), nil
	}
	return "", errf("bad option %q: should be variable, vdelete or vinfo", args[1])
}
