// Command tkcheck is the project's static-analysis tool (see
// docs/static-analysis.md). It lints Tcl scripts — .tcl files and the
// script literals Go sources pass to Eval/MustEval — against the live
// command registry without evaluating them, recursing into deferred
// scripts (bind bodies, -command options, after and send arguments),
// and runs five Go analyzers over type-checked packages: lock
// discipline for "guarded by mu" fields, the whole-program lock-order
// graph, command procedures that keep their args past the call, the
// metrics-name registry (Go names vs the docs/observability.md
// registry block), and package doc comments on internal packages.
//
// Usage:
//
//	tkcheck [-tests] [-known name,...] [-json] [-time] target ...
//
// Targets are .tcl, .go, or .md files, directories, or dir/...
// patterns. The Go analyzers import dependencies from compiled export
// data, so checking Go code needs the go command on PATH. Output order
// is deterministic. -json emits one machine-readable report on stdout
// instead of the human lines; -time prints per-analyzer wall time to
// stderr. Exits 1 when any diagnostic is reported, 2 on usage, read,
// parse or export-data errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tkcheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	tests := fs.Bool("tests", false, "also lint script literals in _test.go files")
	known := fs.String("known", "", "comma-separated extra command names to treat as known")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON report on stdout")
	timings := fs.Bool("time", false, "print per-analyzer timing to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(errOut, "usage: tkcheck [-tests] [-known name,...] [-json] [-time] target ...")
		return 2
	}
	r := lint.NewRunner()
	r.IncludeTests = *tests
	for _, name := range strings.Split(*known, ",") {
		if name = strings.TrimSpace(name); name != "" {
			r.Reg.AddKnown(name)
		}
	}
	for _, target := range fs.Args() {
		if err := r.Check(target); err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
	}
	diags := r.Finish()
	if *timings {
		for _, t := range r.Timings() {
			fmt.Fprintf(errOut, "tkcheck: %-10s %s\n", t.Name, t.Duration.Round(time.Microsecond))
		}
	}
	if errs := r.Errs(); len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintln(errOut, err)
		}
		return 2
	}
	if *jsonOut {
		if err := lint.WriteJSON(out, diags); err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
		if len(diags) > 0 {
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(out, "tkcheck: %d problem(s)\n", len(diags))
		return 1
	}
	return 0
}
