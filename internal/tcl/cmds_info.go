package tcl

import (
	"sort"
	"strconv"
)

// infoCommands are info and array. Info provides the introspection the
// paper highlights: "Tcl is a complete programming language that even
// provides access to its own internals (e.g. it is possible to retrieve
// the body of a Tcl procedure or a list of all defined variable
// names)."
var infoCommands = []Row{
	{Name: "info", Min: 1, Max: -1, Usage: "option ?arg ...?", Subs: []Row{
		{Name: "args", Fn: infoArgs, Min: 1, Max: 1, Usage: "procName"},
		{Name: "body", Fn: infoBody, Min: 1, Max: 1, Usage: "procName"},
		{Name: "cmdcount", Fn: func(in *Interp, _ []string) (string, error) {
			return strconv.FormatInt(in.cmdCount, 10), nil
		}},
		{Name: "commands", Fn: func(in *Interp, args []string) (string, error) {
			return matching(in.CommandNames(), args), nil
		}, Max: 1, Usage: "?pattern?"},
		{Name: "default", Fn: infoDefault, Min: 3, Max: 3, Usage: "procName arg varName"},
		{Name: "exists", Fn: infoExists, Min: 1, Max: 1, Usage: "varName"},
		{Name: "globals", Fn: func(in *Interp, args []string) (string, error) {
			return matching(localVarNames(in.global()), args), nil
		}, Max: 1, Usage: "?pattern?"},
		{Name: "level", Fn: func(in *Interp, args []string) (string, error) {
			if len(args) == 3 {
				return "", errf(`"info level n" is not supported`)
			}
			return strconv.Itoa(len(in.frames) - 1), nil
		}, Max: 1, Usage: "?number?"},
		{Name: "library", Fn: func(*Interp, []string) (string, error) { return "", nil }},
		{Name: "locals", Fn: func(in *Interp, args []string) (string, error) {
			if len(in.frames) == 1 {
				return "", nil
			}
			return matching(localVarNames(in.current()), args), nil
		}, Max: 1, Usage: "?pattern?"},
		{Name: "procs", Fn: func(in *Interp, args []string) (string, error) {
			var names []string
			for n, c := range in.cmds {
				if c.proc != nil {
					names = append(names, n)
				}
			}
			return matching(names, args), nil
		}, Max: 1, Usage: "?pattern?"},
		{Name: "tclversion", Fn: func(*Interp, []string) (string, error) {
			return "6.5", nil // the era of the paper
		}},
		{Name: "vars", Fn: func(in *Interp, args []string) (string, error) {
			return matching(localVarNames(in.current()), args), nil
		}, Max: 1, Usage: "?pattern?"},
	}},
	{Name: "array", Min: 2, Max: -1, Usage: "option arrayName ?arg ...?", Subs: []Row{
		{Name: "exists", Fn: func(in *Interp, args []string) (string, error) {
			return boolResult(in.arrayVar(args) != nil)
		}, Min: 1, Max: 1, Usage: "arrayName"},
		{Name: "get", Fn: arrayGet, Min: 1, Max: 2, Usage: "arrayName ?pattern?"},
		{Name: "names", Fn: func(in *Interp, args []string) (string, error) {
			return FormatList(in.arrayKeys(args)), nil
		}, Min: 1, Max: 2, Usage: "arrayName ?pattern?"},
		{Name: "set", Fn: arraySet, Min: 2, Max: 2, Usage: "arrayName list"},
		{Name: "size", Fn: func(in *Interp, args []string) (string, error) {
			return strconv.Itoa(len(in.arrayKeys(args))), nil
		}, Min: 1, Max: 1, Usage: "arrayName"},
		{Name: "unset", Fn: arrayUnset, Min: 1, Max: 2, Usage: "arrayName ?pattern?"},
	}},
}

// matching returns, as a sorted list, the names that match the pattern
// in args[2], or all of them when there is none.
func matching(names, args []string) string {
	pat := "*"
	if len(args) > 2 {
		pat = args[2]
	}
	var out []string
	for _, n := range names {
		if GlobMatch(pat, n) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return FormatList(out)
}

// procNamed returns the procedure called name.
func (in *Interp) procNamed(name string) (*procDef, error) {
	cmd, ok := in.cmds[name]
	if !ok || cmd.proc == nil {
		return nil, errf("%q isn't a procedure", name)
	}
	return cmd.proc, nil
}

func infoArgs(in *Interp, args []string) (string, error) {
	p, err := in.procNamed(args[2])
	if err != nil {
		return "", err
	}
	names := make([]string, len(p.formals))
	for i, f := range p.formals {
		names[i] = f.name
	}
	return FormatList(names), nil
}

func infoBody(in *Interp, args []string) (string, error) {
	p, err := in.procNamed(args[2])
	if err != nil {
		return "", err
	}
	return p.body, nil
}

func infoDefault(in *Interp, args []string) (string, error) {
	p, err := in.procNamed(args[2])
	if err != nil {
		return "", err
	}
	for _, f := range p.formals {
		if f.name == args[3] {
			if f.hasDef {
				if _, err := in.SetVar(args[4], f.def); err != nil {
					return "", err
				}
				return "1", nil
			}
			return "0", nil
		}
	}
	return "", errf("procedure %q doesn't have an argument %q", args[2], args[3])
}

func infoExists(in *Interp, args []string) (string, error) {
	if in.VarExists(args[2]) {
		return "1", nil
	}
	// An array variable "exists" even without an element reference.
	name, _, isArr := splitVarName(args[2])
	if !isArr {
		if v := in.lookupVar(in.current(), name, false); v != nil && v.isArr {
			return "1", nil
		}
	}
	return "0", nil
}

// arrayVar returns the array variable args[2] names, or nil.
func (in *Interp) arrayVar(args []string) *Var {
	if v := in.lookupVar(in.current(), args[2], false); v != nil && v.isArr {
		return v
	}
	return nil
}

// arrayKeys returns, sorted, the keys of the array args[2] names that
// match the pattern in args[3], or all of them when there is none.
func (in *Interp) arrayKeys(args []string) []string {
	names := in.arrayNames(args[2])
	if len(args) < 4 {
		return names
	}
	var out []string
	for _, n := range names {
		if GlobMatch(args[3], n) {
			out = append(out, n)
		}
	}
	return out
}

func arrayGet(in *Interp, args []string) (string, error) {
	v := in.arrayVar(args)
	var out []string
	for _, k := range in.arrayKeys(args) {
		out = append(out, k, v.array[k])
	}
	return FormatList(out), nil
}

func arraySet(in *Interp, args []string) (string, error) {
	pairs, err := ParseList(args[3])
	if err != nil {
		return "", err
	}
	if len(pairs)%2 != 0 {
		return "", errf("list must have an even number of elements")
	}
	for i := 0; i < len(pairs); i += 2 {
		if _, err := in.SetVar(args[2]+"("+pairs[i]+")", pairs[i+1]); err != nil {
			return "", err
		}
	}
	return "", nil
}

func arrayUnset(in *Interp, args []string) (string, error) {
	v := in.arrayVar(args)
	for _, k := range in.arrayKeys(args) {
		delete(v.array, k)
	}
	return "", nil
}
