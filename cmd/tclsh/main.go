// Command tclsh is a plain Tcl shell: the Tcl distribution without Tk,
// as it shipped from 1989 (§7 of the paper). It evaluates a script file
// or reads commands interactively from standard input.
//
// With -trace, every command invocation (fully substituted) is logged
// to a bounded ring and dumped to standard error at exit — the Tcl-level
// counterpart of wish's protocol trace.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/tcl"
)

func main() {
	os.Exit(run())
}

// run is main's body with a normal return path, so the -trace dump
// (deferred) also happens when a script fails.
func run() int {
	in := tcl.New()
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-trace" {
		ring := obs.NewRing[string](4096)
		in.Trace = func(words []string) { ring.Append(strings.Join(words, " ")) }
		defer func() {
			for _, e := range ring.Last(0) {
				fmt.Fprintf(os.Stderr, "%04d %s\n", e.Seq, e.Val)
			}
		}()
		args = args[1:]
	}
	if len(args) > 0 {
		rest := args[1:]
		in.SetGlobal("argv0", args[0])
		in.SetGlobal("argv", tcl.FormatList(rest))
		in.SetGlobal("argc", fmt.Sprint(len(rest)))
		data, err := os.ReadFile(args[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "tclsh: %v\n", err)
			return 1
		}
		if _, err := in.Eval(string(data)); err != nil {
			fmt.Fprintf(os.Stderr, "tclsh: %v\n", err)
			return 1
		}
		return 0
	}

	scanner := bufio.NewScanner(os.Stdin)
	var pending strings.Builder
	prompt := "% "
	fmt.Print(prompt)
	for scanner.Scan() {
		pending.WriteString(scanner.Text())
		pending.WriteByte('\n')
		cmd := pending.String()
		if !tcl.Complete(cmd) {
			fmt.Print("> ")
			continue
		}
		pending.Reset()
		res, err := in.Eval(cmd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else if res != "" {
			fmt.Println(res)
		}
		fmt.Print(prompt)
	}
	return 0
}
