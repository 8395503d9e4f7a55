package tcl

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ioCommands are the output, file-system and process commands.
var ioCommands = []Row{
	{Name: "puts", Fn: cmdPuts, Min: 1, Max: 3, Usage: "?-nonewline? ?channel? string"},
	{Name: "print", Fn: cmdPrint, Max: -1, Usage: "?arg ...?"},
	{Name: "source", Fn: cmdSource, Min: 1, Max: 1, Usage: "fileName"},
	{Name: "exec", Fn: cmdExec, Min: 1, Max: -1, Usage: "arg ?arg ...?"},
	{Name: "file", Fn: fileNameFirst, Min: 2, Max: -1, Usage: "option name ?arg ...?", Subs: []Row{
		{Name: "atime", Fn: fileInfo(os.Stat, modTime), Min: 1, Max: 1, Usage: "name"},
		{Name: "delete", Fn: fileDelete, Min: 1, Max: -1, Usage: "name ?name ...?"},
		{Name: "dirname", Fn: filePath(filepath.Dir), Min: 1, Max: 1, Usage: "name"},
		{Name: "executable", Fn: fileMode(func(fi os.FileInfo) bool { return fi.Mode().Perm()&0100 != 0 }), Min: 1, Max: 1, Usage: "name"},
		{Name: "exists", Fn: fileMode(func(os.FileInfo) bool { return true }), Min: 1, Max: 1, Usage: "name"},
		{Name: "extension", Fn: filePath(filepath.Ext), Min: 1, Max: 1, Usage: "name"},
		{Name: "isdirectory", Fn: fileMode(os.FileInfo.IsDir), Min: 1, Max: 1, Usage: "name"},
		{Name: "isfile", Fn: fileMode(func(fi os.FileInfo) bool { return fi.Mode().IsRegular() }), Min: 1, Max: 1, Usage: "name"},
		{Name: "join", Fn: func(_ *Interp, args []string) (string, error) {
			return filepath.Join(args[2:]...), nil
		}, Min: 1, Max: -1, Usage: "name ?name ...?"},
		{Name: "mkdir", Fn: fileMkdir, Min: 1, Max: -1, Usage: "dir ?dir ...?"},
		{Name: "mtime", Fn: fileInfo(os.Stat, modTime), Min: 1, Max: 1, Usage: "name"},
		{Name: "owned", Fn: fileMode(func(os.FileInfo) bool { return true }), Min: 1, Max: 1, Usage: "name"},
		{Name: "readable", Fn: func(_ *Interp, args []string) (string, error) {
			f, err := os.Open(args[2])
			if err == nil {
				f.Close()
			}
			return boolResult(err == nil)
		}, Min: 1, Max: 1, Usage: "name"},
		{Name: "rootname", Fn: filePath(func(name string) string {
			return strings.TrimSuffix(name, filepath.Ext(name))
		}), Min: 1, Max: 1, Usage: "name"},
		{Name: "size", Fn: fileInfo(os.Stat, func(fi os.FileInfo) string {
			return strconv.FormatInt(fi.Size(), 10)
		}), Min: 1, Max: 1, Usage: "name"},
		{Name: "split", Fn: fileSplit, Min: 1, Max: 1, Usage: "name"},
		{Name: "tail", Fn: filePath(filepath.Base), Min: 1, Max: 1, Usage: "name"},
		{Name: "type", Fn: fileInfo(os.Lstat, fileType), Min: 1, Max: 1, Usage: "name"},
		{Name: "writable", Fn: fileMode(func(fi os.FileInfo) bool { return fi.Mode().Perm()&0200 != 0 }), Min: 1, Max: 1, Usage: "name"},
	}},
	{Name: "glob", Fn: cmdGlob, Min: 1, Max: -1, Usage: "?-nocomplain? pattern ?pattern ...?"},
	{Name: "pwd", Fn: cmdPwd},
	{Name: "cd", Fn: cmdCd, Max: 1, Usage: "?dirName?"},
	{Name: "pid", Fn: func(*Interp, []string) (string, error) { return strconv.Itoa(os.Getpid()), nil }},
	{Name: "exit", Fn: cmdExit, Max: 1, Usage: "?returnCode?"},
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
		return "", in.usage(args)
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

// fileNameFirst runs "file name option", the order of the paper's
// Figure 9, as "file option name".
func fileNameFirst(in *Interp, args []string) (string, error) {
	file := in.cmds[args[0]].Row
	if file.Sub(args[2]) == nil {
		return "", file.badOption(args[1])
	}
	words := append([]string{args[0], args[2], args[1]}, args[3:]...)
	row, err := file.resolve(words)
	if err != nil {
		return "", err
	}
	return row.Fn(in, words)
}

// fileMode returns the procedure of a file subcommand that tests the
// file's information with ok, and is false for a file it cannot stat.
func fileMode(ok func(os.FileInfo) bool) CmdFunc {
	return func(_ *Interp, args []string) (string, error) {
		fi, err := os.Stat(args[2])
		return boolResult(err == nil && ok(fi))
	}
}

// filePath returns the procedure of a file subcommand that computes
// its result from the name alone.
func filePath(fn func(string) string) CmdFunc {
	return func(_ *Interp, args []string) (string, error) { return fn(args[2]), nil }
}

// fileInfo returns the procedure of a file subcommand whose result fn
// computes from the file's information, read with stat.
func fileInfo(stat func(string) (os.FileInfo, error), fn func(os.FileInfo) string) CmdFunc {
	return func(_ *Interp, args []string) (string, error) {
		fi, err := stat(args[2])
		if err != nil {
			return "", errf("couldn't stat %q: %s", args[2], err)
		}
		return fn(fi), nil
	}
}

// modTime is the result of atime and mtime; both read the modification
// time.
func modTime(fi os.FileInfo) string { return strconv.FormatInt(fi.ModTime().Unix(), 10) }

func fileType(fi os.FileInfo) string {
	switch {
	case fi.Mode().IsRegular():
		return "file"
	case fi.IsDir():
		return "directory"
	case fi.Mode()&os.ModeSymlink != 0:
		return "link"
	}
	return "other"
}

func fileDelete(_ *Interp, args []string) (string, error) {
	for _, n := range args[2:] {
		_ = os.RemoveAll(n)
	}
	return "", nil
}

func fileMkdir(_ *Interp, args []string) (string, error) {
	for _, n := range args[2:] {
		if err := os.MkdirAll(n, 0o755); err != nil {
			return "", errf("couldn't create directory %q: %s", n, err)
		}
	}
	return "", nil
}

func fileSplit(_ *Interp, args []string) (string, error) {
	name := args[2]
	parts := strings.Split(filepath.Clean(name), string(filepath.Separator))
	if strings.HasPrefix(name, "/") {
		parts[0] = "/"
	}
	return FormatList(parts), nil
}

func cmdGlob(in *Interp, args []string) (string, error) {
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
	dir := os.Getenv("HOME")
	if len(args) == 2 {
		dir = args[1]
	}
	if err := os.Chdir(dir); err != nil {
		return "", errf("couldn't change working directory to %q: %s", dir, err)
	}
	return "", nil
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
