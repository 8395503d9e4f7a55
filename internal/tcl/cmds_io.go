package tcl

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// registerIO installs output, file-system and process commands.
func registerIO(in *Interp) {
	in.Register("puts", cmdPuts)
	in.Register("print", cmdPrint)
	in.Register("source", cmdSource)
	in.Register("exec", cmdExec)
	in.Register("file", cmdFile)
	in.Register("glob", cmdGlob)
	in.Register("pwd", cmdPwd)
	in.Register("cd", cmdCd)
	in.Register("pid", cmdPid)
	in.Register("exit", cmdExit)
}

// initEnv populates the global env array from the process environment,
// as Tcl does ($env(HOME) and friends).
func (in *Interp) initEnv() {
	for _, kv := range os.Environ() {
		if i := strings.IndexByte(kv, '='); i > 0 {
			_, _ = in.SetGlobal("env("+kv[:i]+")", kv[i+1:])
		}
	}
}

func (in *Interp) out() interface{ Write([]byte) (int, error) } {
	if in.Out != nil {
		return in.Out
	}
	return os.Stdout
}

func cmdPuts(in *Interp, args []string) (string, error) {
	newline := true
	rest := args[1:]
	if len(rest) > 0 && rest[0] == "-nonewline" {
		newline = false
		rest = rest[1:]
	}
	// Accept and ignore a leading "stdout"/"stderr" channel argument.
	if len(rest) == 2 && (rest[0] == "stdout" || rest[0] == "stderr") {
		rest = rest[1:]
	}
	if len(rest) != 1 {
		return "", errf(`wrong # args: should be "puts ?-nonewline? ?channel? string"`)
	}
	s := rest[0]
	if newline {
		s += "\n"
	}
	_, err := in.out().Write([]byte(s))
	return "", err
}

// cmdPrint implements the Tcl 6.x "print" command used throughout the
// paper's figures: it writes its arguments verbatim (no added newline —
// the figures pass "\n" explicitly).
func cmdPrint(in *Interp, args []string) (string, error) {
	s := strings.Join(args[1:], " ")
	_, err := in.out().Write([]byte(s))
	return "", err
}

func cmdSource(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1, "fileName"); err != nil {
		return "", err
	}
	data, err := os.ReadFile(args[1])
	if err != nil {
		return "", errf("couldn't read file %q: %s", args[1], err)
	}
	return in.finish(in.eval(string(data)))
}

// cmdExec runs an external command pipeline, capturing standard output.
// Supported, as in Tcl's exec: "|" between commands builds a pipeline;
// "< file" redirects the first command's input; "> file" and ">> file"
// redirect the last command's output; a final "&" runs the pipeline in
// the background and returns the pids. Trailing newlines are stripped
// from captured output.
func cmdExec(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", errf(`wrong # args: should be "exec arg ?arg ...?"`)
	}
	rest := args[1:]
	background := false
	if rest[len(rest)-1] == "&" {
		background = true
		rest = rest[:len(rest)-1]
	}

	// Parse redirections and split on pipes.
	var stdinFile, stdoutFile string
	appendOut := false
	var stages [][]string
	cur := []string{}
	i := 0
	for i < len(rest) {
		tok := rest[i]
		switch {
		case tok == "|":
			if len(cur) == 0 {
				return "", errf("illegal use of | in exec command")
			}
			stages = append(stages, cur)
			cur = nil
		case tok == "<" || strings.HasPrefix(tok, "<") && len(tok) > 1 && tok != "<<":
			name := strings.TrimPrefix(tok, "<")
			if name == "" {
				i++
				if i >= len(rest) {
					return "", errf("can't specify \"<\" as last word in command")
				}
				name = rest[i]
			}
			stdinFile = name
		case tok == ">>" || strings.HasPrefix(tok, ">>"):
			name := strings.TrimPrefix(tok, ">>")
			if name == "" {
				i++
				if i >= len(rest) {
					return "", errf("can't specify \">>\" as last word in command")
				}
				name = rest[i]
			}
			stdoutFile, appendOut = name, true
		case tok == ">" || strings.HasPrefix(tok, ">") && len(tok) > 1:
			name := strings.TrimPrefix(tok, ">")
			if name == "" {
				i++
				if i >= len(rest) {
					return "", errf("can't specify \">\" as last word in command")
				}
				name = rest[i]
			}
			stdoutFile = name
		default:
			cur = append(cur, tok)
		}
		i++
	}
	if len(cur) > 0 {
		stages = append(stages, cur)
	}
	if len(stages) == 0 {
		return "", errf("exec: no command given")
	}

	cmds := make([]*exec.Cmd, len(stages))
	for si, stage := range stages {
		cmds[si] = exec.Command(stage[0], stage[1:]...)
	}
	// Wire the pipeline.
	for si := 1; si < len(cmds); si++ {
		pipe, err := cmds[si-1].StdoutPipe()
		if err != nil {
			return "", errf("exec pipe: %s", err)
		}
		cmds[si].Stdin = pipe
	}
	if stdinFile != "" {
		f, err := os.Open(stdinFile)
		if err != nil {
			return "", errf("couldn't read file %q: %s", stdinFile, err)
		}
		defer f.Close()
		cmds[0].Stdin = f
	}
	last := cmds[len(cmds)-1]
	var outBuf, errBuf strings.Builder
	if stdoutFile != "" {
		flags := os.O_WRONLY | os.O_CREATE
		if appendOut {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(stdoutFile, flags, 0o644)
		if err != nil {
			return "", errf("couldn't write file %q: %s", stdoutFile, err)
		}
		defer f.Close()
		last.Stdout = f
	} else if !background {
		last.Stdout = &outBuf
	}
	if !background {
		last.Stderr = &errBuf
	}

	// Start every stage.
	for si, c := range cmds {
		if err := c.Start(); err != nil {
			return "", errf("couldn't execute %q: %s", stages[si][0], err)
		}
	}
	if background {
		var pids []string
		for _, c := range cmds {
			pids = append(pids, strconv.Itoa(c.Process.Pid))
			go func(c *exec.Cmd) { _ = c.Wait() }(c)
		}
		return strings.Join(pids, " "), nil
	}
	// Wait in order; the last stage's status decides success.
	var waitErr error
	for _, c := range cmds {
		if err := c.Wait(); err != nil {
			waitErr = err
		}
	}
	result := strings.TrimRight(outBuf.String(), "\n")
	if waitErr != nil {
		msg := strings.TrimRight(errBuf.String(), "\n")
		if msg == "" {
			msg = result
		}
		if msg == "" {
			msg = waitErr.Error()
		}
		return "", errf("%s", msg)
	}
	return result, nil
}

// fileOptions are the option names recognized by the file command; used
// to support both argument orders ("file option name" and the paper's
// Figure 9 order "file name option").
var fileOptions = map[string]bool{
	"atime": true, "dirname": true, "executable": true, "exists": true,
	"extension": true, "isdirectory": true, "isfile": true, "mtime": true,
	"owned": true, "readable": true, "rootname": true, "size": true,
	"tail": true, "writable": true, "delete": true, "mkdir": true,
	"join": true, "split": true, "type": true,
}

func cmdFile(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", errf(`wrong # args: should be "file option name ?arg ...?"`)
	}
	op, name := args[1], args[2]
	if !fileOptions[op] && fileOptions[name] {
		// Figure 9 order: file $file isdirectory.
		op, name = name, op
	}
	boolRes := func(b bool) (string, error) {
		if b {
			return "1", nil
		}
		return "0", nil
	}
	switch op {
	case "exists":
		_, err := os.Stat(name)
		return boolRes(err == nil)
	case "isdirectory":
		fi, err := os.Stat(name)
		return boolRes(err == nil && fi.IsDir())
	case "isfile":
		fi, err := os.Stat(name)
		return boolRes(err == nil && fi.Mode().IsRegular())
	case "readable":
		f, err := os.Open(name)
		if err == nil {
			f.Close()
		}
		return boolRes(err == nil)
	case "writable":
		fi, err := os.Stat(name)
		return boolRes(err == nil && fi.Mode().Perm()&0200 != 0)
	case "executable":
		fi, err := os.Stat(name)
		return boolRes(err == nil && fi.Mode().Perm()&0100 != 0)
	case "owned":
		_, err := os.Stat(name)
		return boolRes(err == nil)
	case "size":
		fi, err := os.Stat(name)
		if err != nil {
			return "", errf("couldn't stat %q: %s", name, err)
		}
		return strconv.FormatInt(fi.Size(), 10), nil
	case "mtime":
		fi, err := os.Stat(name)
		if err != nil {
			return "", errf("couldn't stat %q: %s", name, err)
		}
		return strconv.FormatInt(fi.ModTime().Unix(), 10), nil
	case "atime":
		fi, err := os.Stat(name)
		if err != nil {
			return "", errf("couldn't stat %q: %s", name, err)
		}
		return strconv.FormatInt(fi.ModTime().Unix(), 10), nil
	case "dirname":
		d := filepath.Dir(name)
		return d, nil
	case "tail":
		return filepath.Base(name), nil
	case "rootname":
		ext := filepath.Ext(name)
		return strings.TrimSuffix(name, ext), nil
	case "extension":
		return filepath.Ext(name), nil
	case "type":
		fi, err := os.Lstat(name)
		if err != nil {
			return "", errf("couldn't stat %q: %s", name, err)
		}
		switch {
		case fi.Mode().IsRegular():
			return "file", nil
		case fi.IsDir():
			return "directory", nil
		case fi.Mode()&os.ModeSymlink != 0:
			return "link", nil
		default:
			return "other", nil
		}
	case "delete":
		for _, n := range args[2:] {
			_ = os.RemoveAll(n)
		}
		return "", nil
	case "mkdir":
		for _, n := range args[2:] {
			if err := os.MkdirAll(n, 0o755); err != nil {
				return "", errf("couldn't create directory %q: %s", n, err)
			}
		}
		return "", nil
	case "join":
		return filepath.Join(args[2:]...), nil
	case "split":
		parts := strings.Split(filepath.Clean(name), string(filepath.Separator))
		if strings.HasPrefix(name, "/") {
			parts[0] = "/"
		}
		return FormatList(parts), nil
	}
	return "", errf("bad option %q for file command", op)
}

func cmdGlob(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", errf(`wrong # args: should be "glob ?-nocomplain? pattern ?pattern ...?"`)
	}
	rest := args[1:]
	nocomplain := false
	if rest[0] == "-nocomplain" {
		nocomplain = true
		rest = rest[1:]
	}
	var out []string
	for _, pat := range rest {
		matches, err := filepath.Glob(pat)
		if err != nil {
			return "", errf("bad pattern %q: %s", pat, err)
		}
		out = append(out, matches...)
	}
	if len(out) == 0 && !nocomplain {
		return "", errf("no files matched glob pattern(s)")
	}
	sort.Strings(out)
	return FormatList(out), nil
}

func cmdPwd(in *Interp, args []string) (string, error) {
	d, err := os.Getwd()
	if err != nil {
		return "", errf("pwd: %s", err)
	}
	return d, nil
}

func cmdCd(in *Interp, args []string) (string, error) {
	if err := arity(args, 0, 1, "?dirName?"); err != nil {
		return "", err
	}
	dir := os.Getenv("HOME")
	if len(args) == 2 {
		dir = args[1]
	}
	if err := os.Chdir(dir); err != nil {
		return "", errf("couldn't change working directory to %q: %s", dir, err)
	}
	return "", nil
}

func cmdPid(in *Interp, args []string) (string, error) {
	return strconv.Itoa(os.Getpid()), nil
}

func cmdExit(in *Interp, args []string) (string, error) {
	code := 0
	if len(args) > 1 {
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return "", errf("expected integer but got %q", args[1])
		}
		code = n
	}
	if in.ExitHandler != nil {
		in.ExitHandler(code)
		return "", nil
	}
	os.Exit(code)
	return "", nil
}
