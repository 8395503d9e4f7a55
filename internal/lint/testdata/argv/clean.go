package fixtures

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/tcl"
)

// copyField keeps a copy, a single word and a joined string: none of
// them refers to the words.
func (w *widget) copyField(in *tcl.Interp, args []string) (string, error) {
	w.opts = slices.Clone(args[1:])
	w.byName[args[1]] = append([]string(nil), args...)
	lastArgs = append(lastArgs, args[1:]...)
	return strings.Join(args, " "), nil
}

// readHelper only reads what it is given.
func readHelper(words []string) int {
	n := 0
	for _, word := range words {
		n += len(word)
	}
	return n
}

// tail returns its argument; what the caller does with it decides.
func tail(words []string) []string { return words[1:] }

// localUse sorts, slices and passes its args around within the call,
// and a deferred closure uses them before the call returns.
func localUse(in *tcl.Interp, args []string) (string, error) {
	defer func() { _ = args[0] }()
	rest := tail(args)
	sort.Strings(rest)
	if readHelper(rest) > 10 {
		args = args[:1]
	}
	return strings.Join(rest, ","), nil
}
