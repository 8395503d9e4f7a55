package tcl

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The expression evaluator implements Tcl's expr sub-language: C-like
// operators and precedence over integers, floating-point numbers and
// strings, with $variable and [command] substitution performed on
// operands (so that "if {$i < 2} ..." works on the unsubstituted braced
// argument, as in real Tcl).

type valKind int

const (
	intVal valKind = iota
	floatVal
	strVal
)

type exprVal struct {
	kind valKind
	i    int64
	f    float64
	s    string
}

func intValue(i int64) exprVal     { return exprVal{kind: intVal, i: i} }
func floatValue(f float64) exprVal { return exprVal{kind: floatVal, f: f} }
func strValue(s string) exprVal    { return exprVal{kind: strVal, s: s} }

func (v exprVal) String() string {
	switch v.kind {
	case intVal:
		return strconv.FormatInt(v.i, 10)
	case floatVal:
		return formatFloat(v.f)
	default:
		return v.s
	}
}

// formatFloat renders a float the way Tcl's default precision does.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	s := strconv.FormatFloat(f, 'g', 12, 64)
	// Guarantee the result re-parses as a float, not an integer.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func (v exprVal) isNumeric() bool { return v.kind == intVal || v.kind == floatVal }

func (v exprVal) asFloat() float64 {
	if v.kind == intVal {
		return float64(v.i)
	}
	return v.f
}

// truth interprets a value as a boolean condition.
func (v exprVal) truth() (bool, error) {
	switch v.kind {
	case intVal:
		return v.i != 0, nil
	case floatVal:
		return v.f != 0, nil
	default:
		switch strings.ToLower(v.s) {
		case "true", "yes", "on", "1":
			return true, nil
		case "false", "no", "off", "0":
			return false, nil
		}
		if n, ok := parseNumber(v.s); ok {
			return n.truth()
		}
		return false, errf("expected boolean value but got %q", v.s)
	}
}

// parseNumber attempts to read s as a Tcl integer (decimal, 0x hex, 0
// octal) or float. Whitespace is trimmed first.
func parseNumber(s string) (exprVal, bool) {
	t := strings.TrimSpace(s)
	if t == "" {
		return exprVal{}, false
	}
	if i, err := strconv.ParseInt(t, 0, 64); err == nil {
		return intValue(i), true
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return floatValue(f), true
	}
	return exprVal{}, false
}

// EvalExpr evaluates a Tcl expression and returns its string value.
func (in *Interp) EvalExpr(expr string) (string, error) {
	v, err := in.exprValue(expr)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// EvalBool evaluates a Tcl expression as a condition.
func (in *Interp) EvalBool(expr string) (bool, error) {
	x := in.compiledExpr(expr)
	return in.truth(&x)
}

// truth evaluates a compiled expression as a condition.
func (in *Interp) truth(x *exprCode) (bool, error) {
	v, err := in.evalExpr(x)
	if err != nil {
		return false, err
	}
	return v.truth()
}

func (in *Interp) exprValue(text string) (exprVal, error) {
	x := in.compiledExpr(text)
	return in.evalExpr(&x)
}

func (in *Interp) evalExpr(x *exprCode) (exprVal, error) {
	if x.err != "" {
		// A fresh error every time: callers append to its Info.
		return exprVal{}, &Error{Code: ErrorStatus, Msg: x.err}
	}
	return in.evalNode(x, len(x.nodes)-1)
}

// An expression compiles to an operator tree stored in postfix order:
// every node follows its operands, and knows the size of its subtree, so
// an operand that lazy evaluation does not need is skipped unevaluated.
// Numbers are converted once, when the expression is compiled.
type exprOp uint8

const (
	eInt   exprOp = iota // integer constant num
	eFloat               // float constant with bits num
	eStr                 // string constant toks[num].text
	eSubst               // $var or [script] at toks[num]: a number if it reads as one
	eQuote               // "..." at toks[num]: a string
	eFunc                // math function toks[num].text of the operands before it
	eCond                // a ? b : c
	eNeg                 // unary operators
	ePos
	eNot
	eBitNot
	eOr // binary operators, by precedence
	eAnd
	eBitOr
	eBitXor
	eBitAnd
	eEq
	eNe
	eLt
	eGt
	eLe
	eGe
	eShl
	eShr
	eAdd
	eSub
	eMul
	eDiv
	eMod
)

var opNames = [...]string{eNeg: "-", ePos: "+", eNot: "!", eBitNot: "~",
	eOr: "||", eAnd: "&&", eBitOr: "|", eBitXor: "^", eBitAnd: "&", eEq: "==", eNe: "!=",
	eLt: "<", eGt: ">", eLe: "<=", eGe: ">=", eShl: "<<", eShr: ">>",
	eAdd: "+", eSub: "-", eMul: "*", eDiv: "/", eMod: "%"}

// binLevels lists the binary operators by precedence, lowest first.
var binLevels = [...][]exprOp{{eOr}, {eAnd}, {eBitOr}, {eBitXor}, {eBitAnd},
	{eEq, eNe}, {eLt, eGt, eLe, eGe}, {eShl, eShr}, {eAdd, eSub}, {eMul, eDiv, eMod}}

type enode struct {
	op   exprOp
	size int32 // nodes in this subtree, this one included
	num  int64
}

type exprCode struct {
	nodes []enode
	toks  []token // operands that substitute, and string constants
	err   string  // a syntax error, raised before anything is evaluated
}

// exprCompiler compiles an expression; its embedded script compiler
// compiles the $, [] and "" operands into toks.
type exprCompiler struct {
	compiler
	nodes []enode
	err   string
}

func compileExpr(src string) exprCode {
	e := &exprCompiler{compiler: compiler{src: src}, nodes: make([]enode, 0, 2+len(src)/2)}
	if e.ternary() {
		if e.space(); e.pos < len(e.src) {
			e.bad(fmt.Sprintf("syntax error in expression %q", src))
		}
	}
	if e.err != "" {
		return exprCode{err: e.err}
	}
	return exprCode{nodes: e.nodes, toks: e.toks}
}

// bad records a syntax error and reports false.
func (e *exprCompiler) bad(msg string) bool {
	e.err = msg
	return false
}

// node appends a node whose subtree starts at node start.
func (e *exprCompiler) node(op exprOp, start int, num int64) {
	e.nodes = append(e.nodes, enode{op: op, size: int32(len(e.nodes) - start + 1), num: num})
}

func (e *exprCompiler) space() {
	for e.pos < len(e.src) && (isBlank(e.src[e.pos]) || e.src[e.pos] == '\n') {
		e.pos++
	}
}

// peekOp returns the operator at the next non-blank position, if any.
func (e *exprCompiler) peekOp() string {
	e.space()
	rest := e.src[e.pos:]
	if rest == "" {
		return ""
	}
	for _, op := range [...]string{"<<", ">>", "<=", ">=", "==", "!=", "&&", "||"} {
		if strings.HasPrefix(rest, op) {
			return op
		}
	}
	switch rest[0] {
	case '+', '-', '*', '/', '%', '<', '>', '&', '|', '^', '?', ':', '!', '~':
		return rest[:1]
	}
	return ""
}

// ternary compiles cond ? a : b (lowest precedence).
func (e *exprCompiler) ternary() bool {
	start := len(e.nodes)
	if !e.binary(0) {
		return false
	}
	if e.peekOp() != "?" {
		return true
	}
	e.pos++
	if !e.ternary() {
		return false
	}
	if e.peekOp() != ":" {
		return e.bad("missing ':' in ternary expression")
	}
	e.pos++
	if !e.ternary() {
		return false
	}
	e.node(eCond, start, 0)
	return true
}

func (e *exprCompiler) binary(level int) bool {
	if level == len(binLevels) {
		return e.unary()
	}
	start := len(e.nodes)
	if !e.binary(level + 1) {
		return false
	}
	for {
		op, found := e.peekOp(), exprOp(0)
		for _, cand := range binLevels[level] {
			if op == opNames[cand] {
				found = cand
			}
		}
		if found == 0 {
			return true
		}
		e.pos += len(op)
		if !e.binary(level + 1) {
			return false
		}
		e.node(found, start, 0)
	}
}

func (e *exprCompiler) unary() bool {
	e.space()
	if e.pos >= len(e.src) {
		return e.bad("premature end of expression")
	}
	op := exprOp(0)
	switch e.src[e.pos] {
	case '-':
		op = eNeg
	case '+':
		op = ePos
	case '!':
		op = eNot
	case '~':
		op = eBitNot
	}
	e.depth++
	defer func() { e.depth-- }()
	switch {
	case e.depth > maxNesting:
		return e.bad(nestingMsg)
	case op == 0:
		return e.primary()
	}
	start := len(e.nodes)
	e.pos++
	if !e.unary() {
		return false
	}
	e.node(op, start, 0)
	return true
}

func (e *exprCompiler) primary() bool {
	at := len(e.toks)
	switch c := e.src[e.pos]; {
	case c == '(':
		e.pos++
		if !e.ternary() {
			return false
		}
		if e.space(); e.pos >= len(e.src) || e.src[e.pos] != ')' {
			return e.bad("looking for close parenthesis")
		}
		e.pos++
		return true
	case c == '$' && !e.isVarRef(e.pos):
		e.pos++
		e.emit(tText, "$")
		return e.operand(eStr, true, at)
	case c == '$':
		return e.operand(eSubst, e.variable(), at)
	case c == '[':
		return e.operand(eSubst, e.bracket(), at)
	case c == '"':
		return e.operand(eQuote, e.quoted(true), at)
	case c == '{':
		return e.operand(eStr, e.braced(), at)
	case c >= '0' && c <= '9' || c == '.':
		return e.number()
	case isAlpha(c):
		return e.function()
	}
	return e.bad(fmt.Sprintf("syntax error in expression at %q", e.src[e.pos:]))
}

// operand adds a leaf for the operand compiled into toks[at:]; a syntax
// error inside it is the expression's.
func (e *exprCompiler) operand(op exprOp, ok bool, at int) bool {
	if !ok {
		return e.bad(e.toks[len(e.toks)-1].text)
	}
	e.node(op, len(e.nodes), int64(at))
	return true
}

func (e *exprCompiler) number() bool {
	start := e.pos
	src := e.src
	if src[e.pos] == '0' && e.pos+1 < len(src) && (src[e.pos+1] == 'x' || src[e.pos+1] == 'X') {
		for e.pos += 2; e.pos < len(src) && isHex(src[e.pos]); e.pos++ {
		}
		i, err := strconv.ParseInt(src[start:e.pos], 0, 64)
		if err != nil {
			return e.bad(fmt.Sprintf("malformed number %q", src[start:e.pos]))
		}
		e.node(eInt, len(e.nodes), i)
		return true
	}
	isFloat := false
	for e.pos < len(src) {
		c := src[e.pos]
		if isDigit(c) || c == '.' {
			isFloat = isFloat || c == '.'
			e.pos++
			continue
		}
		// An exponent, possibly signed.
		if (c == 'e' || c == 'E') && e.pos+1 < len(src) && (isDigit(src[e.pos+1]) ||
			(src[e.pos+1] == '+' || src[e.pos+1] == '-') && e.pos+2 < len(src) && isDigit(src[e.pos+2])) {
			isFloat = true
			e.pos += 2
			continue
		}
		break
	}
	tok := src[start:e.pos]
	if !isFloat {
		if i, err := strconv.ParseInt(tok, 0, 64); err == nil {
			e.node(eInt, len(e.nodes), i)
			return true
		}
	}
	// Floats, and integers out of range, which fall back to float.
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return e.bad(fmt.Sprintf("malformed number %q", tok))
	}
	e.node(eFloat, len(e.nodes), int64(math.Float64bits(f)))
	return true
}

// function compiles a math function call like sin(x) or atan2(y, x).
func (e *exprCompiler) function() bool {
	start, name := len(e.nodes), e.pos
	for e.pos < len(e.src) && (isAlpha(e.src[e.pos]) || isDigit(e.src[e.pos])) {
		e.pos++
	}
	at := e.emit(tText, e.src[name:e.pos])
	if e.space(); e.pos >= len(e.src) || e.src[e.pos] != '(' {
		return e.bad(fmt.Sprintf("syntax error in expression: unknown token %q", e.toks[at].text))
	}
	e.pos++
	if e.space(); e.pos < len(e.src) && e.src[e.pos] == ')' {
		e.pos++
	} else {
		for {
			if !e.ternary() {
				return false
			}
			if e.space(); e.pos >= len(e.src) {
				return e.bad("missing close parenthesis in function call")
			}
			e.pos++
			if e.src[e.pos-1] == ')' {
				break
			}
			if e.src[e.pos-1] != ',' {
				return e.bad("syntax error in function arguments")
			}
		}
	}
	if !knownMathFunc(e.toks[at].text) {
		return e.bad(fmt.Sprintf("unknown math function %q", e.toks[at].text))
	}
	e.node(eFunc, start, int64(at))
	return true
}

// evalNode evaluates the subtree whose root is node i.
func (in *Interp) evalNode(x *exprCode, i int) (exprVal, error) {
	nd := x.nodes[i]
	switch nd.op {
	case eInt:
		return intValue(nd.num), nil
	case eFloat:
		return floatValue(math.Float64frombits(uint64(nd.num))), nil
	case eStr:
		return strValue(x.toks[nd.num].text), nil
	case eSubst, eQuote:
		s, err := in.part(x.toks, int(nd.num))
		if err != nil {
			return exprVal{}, err
		}
		if n, ok := parseNumber(s); ok && nd.op == eSubst {
			return n, nil
		}
		return strValue(s), nil
	case eFunc:
		// The operands are the subtrees before i; evaluate them in order.
		var roots []int
		for j := i - 1; j > i-int(nd.size); j -= int(x.nodes[j].size) {
			roots = append(roots, j)
		}
		args := make([]exprVal, len(roots))
		for k := range args {
			v, err := in.evalNode(x, roots[len(roots)-1-k])
			if err != nil {
				return exprVal{}, err
			}
			args[k] = v
		}
		return applyMathFunc(x.toks[nd.num].text, args)
	case eCond:
		no := i - 1
		yes := no - int(x.nodes[no].size)
		cond, err := in.evalNode(x, yes-int(x.nodes[yes].size))
		if err != nil {
			return exprVal{}, err
		}
		b, err := cond.truth()
		switch {
		case err != nil:
			return exprVal{}, err
		case b:
			return in.evalNode(x, yes)
		}
		return in.evalNode(x, no)
	case eNeg, ePos, eNot, eBitNot:
		v, err := in.evalNode(x, i-1)
		if err != nil {
			return exprVal{}, err
		}
		return applyUnary(nd.op, v)
	}
	r := i - 1
	l, err := in.evalNode(x, r-int(x.nodes[r].size))
	if err != nil {
		return exprVal{}, err
	}
	if nd.op == eAnd || nd.op == eOr {
		// Lazy: when the left operand decides, the right is not evaluated.
		lb, err := l.truth()
		if err != nil || lb == (nd.op == eOr) {
			return boolValue(lb), err
		}
		l, err = in.evalNode(x, r)
		if err != nil {
			return exprVal{}, err
		}
		rb, err := l.truth()
		return boolValue(rb), err
	}
	rv, err := in.evalNode(x, r)
	if err != nil {
		return exprVal{}, err
	}
	return applyBinary(nd.op, l, rv)
}

func applyUnary(op exprOp, v exprVal) (exprVal, error) {
	if op == eNot {
		b, err := v.truth()
		return boolValue(!b), err
	}
	n, ok := coerceNumber(v)
	switch {
	case op == eBitNot && (!ok || n.kind != intVal):
		return exprVal{}, errf("can't use non-integer value as operand of %q", "~")
	case !ok:
		return exprVal{}, errf("can't use non-numeric string %q as operand of %q", v.String(), opNames[op])
	case op == eBitNot:
		return intValue(^n.i), nil
	case op == ePos:
		return n, nil
	case n.kind == intVal:
		return intValue(-n.i), nil
	}
	return floatValue(-n.f), nil
}

func boolValue(b bool) exprVal {
	if b {
		return intValue(1)
	}
	return intValue(0)
}

func applyBinary(op exprOp, l, r exprVal) (exprVal, error) {
	if op >= eEq && op <= eGe {
		return compareVals(op, l, r), nil
	}
	// The remaining operators are numeric.
	ln, lok := coerceNumber(l)
	rn, rok := coerceNumber(r)
	if !lok || !rok {
		bad := l
		if lok {
			bad = r
		}
		return exprVal{}, errf("can't use non-numeric string %q as operand of %q", bad.String(), opNames[op])
	}
	bothInt := ln.kind == intVal && rn.kind == intVal
	switch op {
	case eAdd:
		if bothInt {
			return intValue(ln.i + rn.i), nil
		}
		return floatValue(ln.asFloat() + rn.asFloat()), nil
	case eSub:
		if bothInt {
			return intValue(ln.i - rn.i), nil
		}
		return floatValue(ln.asFloat() - rn.asFloat()), nil
	case eMul:
		if bothInt {
			return intValue(ln.i * rn.i), nil
		}
		return floatValue(ln.asFloat() * rn.asFloat()), nil
	case eDiv:
		if bothInt {
			if rn.i == 0 {
				return exprVal{}, errf("divide by zero")
			}
			return intValue(ln.i / rn.i), nil
		}
		if rn.asFloat() == 0 {
			return exprVal{}, errf("divide by zero")
		}
		return floatValue(ln.asFloat() / rn.asFloat()), nil
	}
	// %, shifts and bitwise operators take integers only.
	if !bothInt {
		return exprVal{}, errf("can't use floating-point value as operand of %q", opNames[op])
	}
	switch op {
	case eMod:
		if rn.i == 0 {
			return exprVal{}, errf("divide by zero")
		}
		return intValue(ln.i % rn.i), nil
	case eShl:
		return intValue(ln.i << uint(rn.i&63)), nil
	case eShr:
		return intValue(ln.i >> uint(rn.i&63)), nil
	case eBitAnd:
		return intValue(ln.i & rn.i), nil
	case eBitOr:
		return intValue(ln.i | rn.i), nil
	}
	return intValue(ln.i ^ rn.i), nil
}

// coerceNumber converts a string value to numeric when possible.
func coerceNumber(v exprVal) (exprVal, bool) {
	if v.isNumeric() {
		return v, true
	}
	return parseNumber(v.s)
}

// compareVals compares numerically when both operands are numeric,
// otherwise as strings (Tcl semantics).
func compareVals(op exprOp, l, r exprVal) exprVal {
	ln, lok := coerceNumber(l)
	rn, rok := coerceNumber(r)
	var c int
	if lok && rok && ln.kind == intVal && rn.kind == intVal {
		c = cmp.Compare(ln.i, rn.i)
	} else if lok && rok {
		lf, rf := ln.asFloat(), rn.asFloat()
		switch {
		case lf < rf:
			c = -1
		case lf > rf:
			c = 1
		}
	} else {
		c = strings.Compare(l.String(), r.String())
	}
	switch op {
	case eEq:
		return boolValue(c == 0)
	case eNe:
		return boolValue(c != 0)
	case eLt:
		return boolValue(c < 0)
	case eGt:
		return boolValue(c > 0)
	case eLe:
		return boolValue(c <= 0)
	}
	return boolValue(c >= 0)
}

func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// knownMathFunc reports whether name is a recognized math function.
func knownMathFunc(name string) bool {
	switch name {
	case "abs", "acos", "asin", "atan", "atan2", "ceil", "cos", "cosh",
		"double", "exp", "floor", "fmod", "hypot", "int", "log", "log10",
		"pow", "round", "sin", "sinh", "sqrt", "tan", "tanh":
		return true
	}
	return false
}

func applyMathFunc(name string, args []exprVal) (exprVal, error) {
	numArgs := func(n int) ([]float64, error) {
		if len(args) != n {
			return nil, errf("math function %q needs %d argument(s), got %d", name, n, len(args))
		}
		out := make([]float64, n)
		for i, a := range args {
			v, ok := coerceNumber(a)
			if !ok {
				return nil, errf("argument to math function %q isn't numeric", name)
			}
			out[i] = v.asFloat()
		}
		return out, nil
	}
	one := func(fn func(float64) float64) (exprVal, error) {
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		r := fn(a[0])
		if math.IsNaN(r) {
			return exprVal{}, errf("domain error: argument not in valid range")
		}
		return floatValue(r), nil
	}
	switch name {
	case "abs":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		v, _ := coerceNumber(args[0])
		if v.kind == intVal {
			if v.i < 0 {
				return intValue(-v.i), nil
			}
			return v, nil
		}
		return floatValue(math.Abs(a[0])), nil
	case "acos":
		return one(math.Acos)
	case "asin":
		return one(math.Asin)
	case "atan":
		return one(math.Atan)
	case "atan2":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(math.Atan2(a[0], a[1])), nil
	case "ceil":
		return one(math.Ceil)
	case "cos":
		return one(math.Cos)
	case "cosh":
		return one(math.Cosh)
	case "double":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(a[0]), nil
	case "exp":
		return one(math.Exp)
	case "floor":
		return one(math.Floor)
	case "fmod":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		if a[1] == 0 {
			return exprVal{}, errf("divide by zero in fmod")
		}
		return floatValue(math.Mod(a[0], a[1])), nil
	case "hypot":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(math.Hypot(a[0], a[1])), nil
	case "int":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		return intValue(int64(a[0])), nil
	case "log":
		return one(math.Log)
	case "log10":
		return one(math.Log10)
	case "pow":
		a, err := numArgs(2)
		if err != nil {
			return exprVal{}, err
		}
		return floatValue(math.Pow(a[0], a[1])), nil
	case "round":
		a, err := numArgs(1)
		if err != nil {
			return exprVal{}, err
		}
		return intValue(int64(math.Round(a[0]))), nil
	case "sin":
		return one(math.Sin)
	case "sinh":
		return one(math.Sinh)
	case "sqrt":
		return one(math.Sqrt)
	case "tan":
		return one(math.Tan)
	case "tanh":
		return one(math.Tanh)
	}
	return exprVal{}, errf("unknown math function %q", name)
}

// registerExprCmd installs the expr command.
func registerExprCmd(in *Interp) {
	in.Register("expr", func(in *Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", errf(`wrong # args: should be "expr arg ?arg ...?"`)
		}
		// Multiple arguments are concatenated with spaces, as in Tcl.
		return in.EvalExpr(strings.Join(args[1:], " "))
	})
}
