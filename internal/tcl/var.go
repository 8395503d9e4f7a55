package tcl

import (
	"slices"
	"sort"
	"strings"
)

// splitVarName splits "a(b)" into name "a" and index "b"; a plain name
// returns index "" and isArr false.
func splitVarName(full string) (name, index string, isArr bool) {
	if i := strings.IndexByte(full, '('); i >= 0 && strings.HasSuffix(full, ")") {
		return full[:i], full[i+1 : len(full)-1], true
	}
	return full, "", false
}

// resolve follows upvar links to the real variable.
func (v *Var) resolve() *Var {
	for v.link != nil {
		v = v.link
	}
	return v
}

// lookupVar finds the variable slot for name in frame f, optionally
// creating it.
func (in *Interp) lookupVar(f *frame, name string, create bool) *Var {
	if v, ok := f.vars[name]; ok {
		return v.resolve()
	}
	if !create {
		return nil
	}
	v := &Var{}
	f.vars[name] = v
	return v
}

// varRead returns the value of a variable in the current frame. The full
// name may include an array index as name(index); callers that have
// already split the name pass index separately with a plain name.
func (in *Interp) varRead(full, index string) (string, error) {
	name := full
	if index == "" {
		var isArr bool
		name, index, isArr = splitVarName(full)
		if !isArr {
			index = ""
		}
	}
	v := in.lookupVar(in.current(), name, false)
	if v == nil {
		return "", errf(`can't read "%s": no such variable`, full)
	}
	in.fireTraces(v, name, index, "r")
	if index != "" {
		if !v.isArr {
			return "", errf(`can't read "%s(%s)": variable isn't array`, name, index)
		}
		val, ok := v.array[index]
		if !ok {
			return "", errf(`can't read "%s(%s)": no such element in array`, name, index)
		}
		return val, nil
	}
	if v.isArr {
		return "", errf(`can't read "%s": variable is array`, name)
	}
	return v.value, nil
}

// GetVar returns the value of variable name (which may be of the form
// name(index)) in the current frame.
func (in *Interp) GetVar(name string) (string, error) {
	return in.varRead(name, "")
}

// atLevel runs fn with the frame at the given absolute level (0 =
// global) as the current one, then restores the caller's frames. When
// that frame is already the current one, fn runs as it is. Otherwise
// the slice it installs is capped, so a procedure fn calls (directly or
// from a variable trace) reallocates it rather than overwrite the
// frames put aside.
func (in *Interp) atLevel(level int, fn func() (string, error)) (string, error) {
	if level == len(in.frames)-1 {
		return fn()
	}
	saved := in.frames
	in.frames = saved[: level+1 : level+1]
	defer func() { in.frames = saved }()
	return fn()
}

// GetGlobal returns the value of a global variable regardless of the
// current frame.
func (in *Interp) GetGlobal(name string) (string, error) {
	return in.atLevel(0, func() (string, error) { return in.varRead(name, "") })
}

// SetVar assigns value to variable full (possibly name(index)) in the
// current frame, creating it if needed. It returns the value assigned.
func (in *Interp) SetVar(full, value string) (string, error) {
	name, index, isArr := splitVarName(full)
	v := in.lookupVar(in.current(), name, true)
	if isArr {
		if !v.isArr {
			if v.value != "" {
				return "", errf(`can't set "%s(%s)": variable isn't array`, name, index)
			}
			v.isArr = true
			v.array = make(map[string]string)
		}
		v.array[index] = value
	} else {
		if v.isArr {
			return "", errf(`can't set "%s": variable is array`, name)
		}
		v.value = value
	}
	in.fireTraces(v, name, index, "w")
	return value, nil
}

// SetGlobal assigns a global variable regardless of the current frame.
func (in *Interp) SetGlobal(full, value string) (string, error) {
	return in.atLevel(0, func() (string, error) { return in.SetVar(full, value) })
}

// UnsetVar removes a variable or array element from the current frame.
// As in Tcl, it deletes first and then runs the unset traces, so a
// trace sees the variable gone. A whole variable's traces go with it:
// a trace that sets or traces the name again makes a new variable.
func (in *Interp) UnsetVar(full string) error {
	name, index, isArr := splitVarName(full)
	f := in.current()
	slot, ok := f.vars[name]
	if !ok {
		return errf(`can't unset "%s": no such variable`, full)
	}
	v := slot.resolve()
	if isArr {
		if !v.isArr {
			return errf(`can't unset "%s(%s)": variable isn't array`, name, index)
		}
		if _, ok := v.array[index]; !ok {
			return errf(`can't unset "%s(%s)": no such element in array`, name, index)
		}
		delete(v.array, index)
	} else {
		delete(f.vars, name)
	}
	in.fireTraces(v, name, index, "u")
	return nil
}

// VarExists reports whether full (possibly name(index)) is readable in
// the current frame.
func (in *Interp) VarExists(full string) bool {
	name, index, isArr := splitVarName(full)
	v := in.lookupVar(in.current(), name, false)
	if v == nil {
		return false
	}
	if isArr {
		if !v.isArr {
			return false
		}
		_, ok := v.array[index]
		return ok
	}
	return !v.isArr
}

// LinkVar makes local name in the current frame an alias for variable
// other in frame at the given absolute level (0 = global). This is the
// engine behind upvar and global.
func (in *Interp) LinkVar(level int, other, local string) error {
	if level < 0 || level >= len(in.frames) {
		return errf("bad level %d", level)
	}
	target := in.lookupVar(in.frames[level], other, true)
	cur := in.current()
	if existing, ok := cur.vars[local]; ok && existing.resolve() == target {
		return nil
	}
	cur.vars[local] = &Var{link: target}
	return nil
}

// TraceVar registers a trace on variable name in the current frame,
// creating the variable slot if needed. ops is a subset of "rwu". The
// trace returned is the handle UntraceVar takes.
func (in *Interp) TraceVar(name string, ops string, fn func(in *Interp, name, index, op string)) *VarTrace {
	return in.addTrace(name, &VarTrace{Ops: ops, Fn: fn})
}

// TraceGlobal registers a trace on a global variable regardless of the
// current frame, as Tk's variable links do (TCL_GLOBAL_ONLY).
func (in *Interp) TraceGlobal(name string, ops string, fn func(in *Interp, name, index, op string)) *VarTrace {
	var t *VarTrace
	in.atLevel(0, func() (string, error) { t = in.TraceVar(name, ops, fn); return "", nil })
	return t
}

// addTrace puts t on variable name in the current frame.
func (in *Interp) addTrace(name string, t *VarTrace) *VarTrace {
	base, _, _ := splitVarName(name)
	t.v = in.lookupVar(in.current(), base, true)
	t.v.traces = append(t.v.traces, t)
	return t
}

// UntraceVar removes trace t from its variable, as Tcl_UntraceVar does.
// A trace already removed, or whose variable has been unset, is
// ignored.
func (in *Interp) UntraceVar(t *VarTrace) {
	if i := slices.Index(t.v.traces, t); i >= 0 {
		t.v.traces = slices.Delete(t.v.traces, i, i+1)
	}
}

func (in *Interp) fireTraces(v *Var, name, index, op string) {
	if len(v.traces) == 0 {
		return
	}
	// Copy: a trace may add or remove traces.
	traces := append([]*VarTrace(nil), v.traces...)
	for _, t := range traces {
		if !strings.Contains(t.Ops, op) {
			continue
		}
		if t.Fn != nil {
			t.Fn(in, name, index, op)
		} else {
			_, _ = in.eval(t.script + " " + QuoteElement(name) + " " + QuoteElement(index) + " " + op)
		}
	}
}

// arrayNames returns the sorted element names of array variable name in
// the current frame, or nil if it is not an array.
func (in *Interp) arrayNames(name string) []string {
	v := in.lookupVar(in.current(), name, false)
	if v == nil || !v.isArr {
		return nil
	}
	names := make([]string, 0, len(v.array))
	for k := range v.array {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// localVarNames returns the sorted variable names visible in frame f.
func localVarNames(f *frame) []string {
	names := make([]string, 0, len(f.vars))
	for k := range f.vars {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
