// Command wish is the windowing shell of §5: Tcl + Tk + a main program
// that reads Tcl commands from standard input or from a file. Entire
// windowing applications are written as wish scripts, like the Figure 9
// directory browser.
//
// Usage:
//
//	wish ?-f script? ?-name appName? ?-display addr? ?-session name? ?-wire v1|v2? ?-trace? ?-spans file? ?arg ...?
//
// With -display (or the WISH_DISPLAY environment variable) wish connects
// to a shared simulated display server started with xsimd, so several
// wish applications can see each other and communicate with send. Without
// it, a private in-process display server is created. When the display
// is a session farm (xsimd -sessions), -session (or WISH_SESSION) names
// the virtual display to attach — wish processes naming the same
// session share a screen; different names are fully isolated
// (docs/farm.md).
//
// With -wire v2, the connection negotiates the v2 wire protocol
// (docs/pipelining.md): checksummed, flate-compressed segments of the
// same frames v1 sends, and latency-adaptive flush batching.
// Servers that do not speak v2 transparently fall back to v1. The
// default is v1.
//
// With -trace, every protocol request, reply, error and event crossing
// the display connection is decoded (xscope-style), above the v2 codec,
// so either wire protocol traces the same frames; the accumulated trace
// is printed to standard error at exit and is available to scripts
// while running via "tkstats trace".
//
// With -spans, one request in 64 is followed end to end by the span
// layer (internal/obs/trace) and the retained spans are written to the
// named file as Chrome trace-event JSON at exit — load it in
// chrome://tracing or Perfetto. Scripts can export mid-run with
// "tkstats spans ?file?".
//
// The special command "screenshot file.ppm ?window?" is added so headless
// runs can capture what would be on screen.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/tcl"
)

func main() {
	var (
		script   string
		appName  = "wish"
		display  = os.Getenv("WISH_DISPLAY")
		session  = os.Getenv("WISH_SESSION")
		trace    bool
		spanFile string
		wireV2   = os.Getenv("WISH_WIRE") == "v2"
	)
	args := os.Args[1:]
	var scriptArgs []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-f", "-file":
			if i+1 >= len(args) {
				fatal("missing file name after -f")
			}
			i++
			script = args[i]
			// Everything after the script name belongs to the script.
			scriptArgs = args[i+1:]
			i = len(args)
		case "-name":
			if i+1 >= len(args) {
				fatal("missing name after -name")
			}
			i++
			appName = args[i]
		case "-display":
			if i+1 >= len(args) {
				fatal("missing address after -display")
			}
			i++
			display = args[i]
		case "-session":
			if i+1 >= len(args) {
				fatal("missing session name after -session")
			}
			i++
			session = args[i]
		case "-wire":
			if i+1 >= len(args) {
				fatal("missing version after -wire")
			}
			i++
			switch args[i] {
			case "v1", "1":
				wireV2 = false
			case "v2", "2":
				wireV2 = true
			default:
				fatal("unknown wire version %q (want v1 or v2)", args[i])
			}
		case "-trace":
			trace = true
		case "-spans":
			if i+1 >= len(args) {
				fatal("missing file name after -spans")
			}
			i++
			spanFile = args[i]
		default:
			if script == "" && !strings.HasPrefix(args[i], "-") {
				// "wish script args..." shorthand.
				script = args[i]
				scriptArgs = args[i+1:]
				i = len(args)
			} else {
				fatal("unknown option %q", args[i])
			}
		}
	}
	if script != "" && appName == "wish" {
		appName = script
		if i := strings.LastIndexByte(appName, '/'); i >= 0 {
			appName = appName[i+1:]
		}
	}

	spanInterval := 0
	if spanFile != "" {
		spanInterval = 64
	}
	app, err := core.NewApp(core.Options{Name: appName, Display: display, Session: session, Trace: trace, SpanInterval: spanInterval, WireV2: wireV2})
	if err != nil {
		fatal("%v", err)
	}
	defer app.Close()
	if spanFile != "" {
		// Runs before the deferred Close (LIFO): dump the retained spans
		// while the tracer is still being fed only by this process.
		defer func() {
			data, err := app.Spans.ChromeJSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "wish: span export: %v\n", err)
				return
			}
			if err := os.WriteFile(spanFile, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "wish: span export: %v\n", err)
			}
		}()
	}
	if trace {
		// Runs before the deferred Close above (LIFO), so the
		// connection is still coherent while dumping.
		defer func() {
			for _, line := range app.Tracer.Dump(0) {
				fmt.Fprintln(os.Stderr, line)
			}
		}()
	}

	// Script-visible argument variables, as in wish.
	app.Interp.SetGlobal("argv0", appName)
	app.Interp.SetGlobal("argv", tcl.FormatList(scriptArgs))
	app.Interp.SetGlobal("argc", fmt.Sprint(len(scriptArgs)))

	app.Interp.Register("screenshot", func(in *tcl.Interp, argv []string) (string, error) {
		if len(argv) < 2 || len(argv) > 3 {
			return "", fmt.Errorf(`wrong # args: should be "screenshot file ?window?"`)
		}
		win := ""
		if len(argv) == 3 {
			win = argv[2]
		}
		return "", app.ScreenshotPPM(win, argv[1])
	})

	// §5: commands "placed in a startup file to be read automatically
	// whenever the application is executed". WISHRC overrides ~/.wishrc.
	rc := os.Getenv("WISHRC")
	if rc == "" {
		if home := os.Getenv("HOME"); home != "" {
			rc = home + "/.wishrc"
		}
	}
	if rc != "" {
		if data, err := os.ReadFile(rc); err == nil {
			if _, err := app.Eval(string(data)); err != nil {
				fmt.Fprintf(os.Stderr, "wish: error in %s: %v\n", rc, err)
			}
		}
	}

	if script != "" {
		data, err := os.ReadFile(script)
		if err != nil {
			fatal("couldn't read %s: %v", script, err)
		}
		if _, err := app.Eval(string(data)); err != nil {
			fatal("%s: %v", script, err)
		}
		app.MainLoop()
		return
	}

	// Interactive: read commands from stdin through the toolkit's
	// file-event mechanism (§3.2); each complete command evaluates in the
	// event loop.
	fmt.Println("wish: Tk windowing shell (simulated display); type Tcl commands.")
	var pending strings.Builder
	app.CreateFileHandler(os.Stdin, func(line string) {
		pending.WriteString(line)
		pending.WriteByte('\n')
		cmd := pending.String()
		if !tcl.Complete(cmd) {
			return
		}
		pending.Reset()
		res, err := app.Eval(cmd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else if res != "" {
			fmt.Println(res)
		}
	}, app.Quit)
	app.MainLoop()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wish: "+format+"\n", args...)
	os.Exit(1)
}
