package tcl

import (
	"sort"
	"strconv"
)

// registerInfo installs info and array.
func registerInfo(in *Interp) {
	in.Register("info", cmdInfo)
}

func registerArray(in *Interp) {
	in.Register("array", cmdArray)
}

// cmdInfo provides the introspection the paper highlights: "Tcl is a
// complete programming language that even provides access to its own
// internals (e.g. it is possible to retrieve the body of a Tcl procedure
// or a list of all defined variable names)."
func cmdInfo(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", errf(`wrong # args: should be "info option ?arg ...?"`)
	}
	filter := func(names []string, patIdx int) string {
		pat := "*"
		if len(args) > patIdx {
			pat = args[patIdx]
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
	switch args[1] {
	case "args":
		if len(args) != 3 {
			return "", errf(`wrong # args: should be "info args procName"`)
		}
		cmd, ok := in.cmds[args[2]]
		if !ok || cmd.proc == nil {
			return "", errf("%q isn't a procedure", args[2])
		}
		names := make([]string, len(cmd.proc.formals))
		for i, f := range cmd.proc.formals {
			names[i] = f.name
		}
		return FormatList(names), nil
	case "body":
		if len(args) != 3 {
			return "", errf(`wrong # args: should be "info body procName"`)
		}
		cmd, ok := in.cmds[args[2]]
		if !ok || cmd.proc == nil {
			return "", errf("%q isn't a procedure", args[2])
		}
		return cmd.proc.body, nil
	case "default":
		if len(args) != 5 {
			return "", errf(`wrong # args: should be "info default procName arg varName"`)
		}
		cmd, ok := in.cmds[args[2]]
		if !ok || cmd.proc == nil {
			return "", errf("%q isn't a procedure", args[2])
		}
		for _, f := range cmd.proc.formals {
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
	case "commands":
		return filter(in.CommandNames(), 2), nil
	case "procs":
		var names []string
		for n, c := range in.cmds {
			if c.proc != nil {
				names = append(names, n)
			}
		}
		return filter(names, 2), nil
	case "exists":
		if len(args) != 3 {
			return "", errf(`wrong # args: should be "info exists varName"`)
		}
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
	case "globals":
		return filter(localVarNames(in.global()), 2), nil
	case "locals":
		if len(in.frames) == 1 {
			return "", nil
		}
		return filter(localVarNames(in.current()), 2), nil
	case "vars":
		return filter(localVarNames(in.current()), 2), nil
	case "level":
		if len(args) == 2 {
			return strconv.Itoa(len(in.frames) - 1), nil
		}
		return "", errf(`"info level n" is not supported`)
	case "tclversion":
		return "6.5", nil // the era of the paper
	case "library":
		return "", nil
	case "cmdcount":
		return strconv.FormatInt(in.cmdCount, 10), nil
	}
	return "", errf("bad option %q: should be args, body, cmdcount, commands, default, exists, globals, level, locals, procs, tclversion, or vars", args[1])
}

func cmdArray(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", errf(`wrong # args: should be "array option arrayName ?arg ...?"`)
	}
	name := args[2]
	v := in.lookupVar(in.current(), name, false)
	isArray := v != nil && v.isArr
	switch args[1] {
	case "exists":
		if isArray {
			return "1", nil
		}
		return "0", nil
	case "size":
		if !isArray {
			return "0", nil
		}
		return strconv.Itoa(len(v.array)), nil
	case "names":
		if !isArray {
			return "", nil
		}
		names := in.arrayNames(name)
		if len(args) > 3 {
			var out []string
			for _, n := range names {
				if GlobMatch(args[3], n) {
					out = append(out, n)
				}
			}
			names = out
		}
		return FormatList(names), nil
	case "get":
		if !isArray {
			return "", nil
		}
		var out []string
		for _, k := range in.arrayNames(name) {
			out = append(out, k, v.array[k])
		}
		return FormatList(out), nil
	case "set":
		if len(args) != 4 {
			return "", errf(`wrong # args: should be "array set arrayName list"`)
		}
		pairs, err := ParseList(args[3])
		if err != nil {
			return "", err
		}
		if len(pairs)%2 != 0 {
			return "", errf("list must have an even number of elements")
		}
		for i := 0; i < len(pairs); i += 2 {
			if _, err := in.SetVar(name+"("+pairs[i]+")", pairs[i+1]); err != nil {
				return "", err
			}
		}
		return "", nil
	case "unset":
		if !isArray {
			return "", nil
		}
		pat := "*"
		if len(args) > 3 {
			pat = args[3]
		}
		for _, k := range in.arrayNames(name) {
			if GlobMatch(pat, k) {
				delete(v.array, k)
			}
		}
		return "", nil
	}
	return "", errf("bad option %q: should be exists, get, names, set, size, or unset", args[1])
}
