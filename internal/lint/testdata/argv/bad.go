// Package fixtures exercises the argument-lifetime analyzer: each
// command below keeps its args, or a value that holds them, past the
// call in one of the ways the analyzer reports; clean.go holds the
// commands that must stay quiet.
package fixtures

import (
	"errors"
	"time"

	"repro/internal/tcl"
)

type widget struct {
	opts    []string
	byName  map[string][]string
	onClose func()
	done    chan []string
}

var lastArgs []string

// keepField stores a subslice of args in a field.
func (w *widget) keepField(in *tcl.Interp, args []string) (string, error) {
	w.opts = args[1:]
	return "", nil
}

// install stores what it is given; cmdCreate hands it args.
func (w *widget) install(opts []string) {
	w.opts = opts
}

func (w *widget) cmdCreate(in *tcl.Interp, args []string) (string, error) {
	w.install(args[2:])
	return "", nil
}

// keepGlobal carries args through a local into a package-level
// variable.
func keepGlobal(in *tcl.Interp, args []string) (string, error) {
	rest := args[1:]
	lastArgs = rest
	return "", nil
}

func (w *widget) keepMap(in *tcl.Interp, args []string) (string, error) {
	w.byName[args[1]] = args
	return "", nil
}

func (w *widget) keepChannel(in *tcl.Interp, args []string) (string, error) {
	w.done <- args
	return "", nil
}

type argsError struct{ words []string }

func (e *argsError) Error() string { return "bad args" }

func keepError(in *tcl.Interp, args []string) (string, error) {
	return "", &argsError{words: args}
}

func keepGoroutine(in *tcl.Interp, args []string) (string, error) {
	go func() { _ = len(args) }()
	return "", nil
}

func (w *widget) keepClosure(in *tcl.Interp, args []string) (string, error) {
	w.onClose = func() { _ = args[0] }
	return "", nil
}

func keepTimer(in *tcl.Interp, args []string) (string, error) {
	time.AfterFunc(time.Second, func() { _ = args[1] })
	return "", nil
}

// register keeps args in a variable of the function that registers the
// command literal.
func register(in *tcl.Interp) []string {
	var seen []string
	in.Register("seen", func(in *tcl.Interp, args []string) (string, error) {
		seen = args
		return "", errors.New("unused")
	})
	return seen
}

// on returns a command that runs a subcommand procedure on a widget
// with the words after the subcommand, as the widget rows do.
func on(fn func(w *widget, args []string) (string, error)) tcl.CmdFunc {
	return func(in *tcl.Interp, args []string) (string, error) {
		return fn(&widget{}, args[2:])
	}
}

// keepSubcommand is a subcommand procedure that keeps its words.
var keepSubcommand = on(func(w *widget, args []string) (string, error) {
	w.opts = args
	return "", nil
})
