package widget_test

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/tcl"
	"repro/internal/widget"
)

// TestConfigureRejectedLeavesWidget: a configure call that fails, on an
// unknown option, a missing value or a value the widget cannot use,
// leaves every option and the widget's pixels as they were, and later
// calls succeed, as Tk's configure restores what a failed call set.
func TestConfigureRejectedLeavesWidget(t *testing.T) {
	app, _ := newApp(t)
	app.MustEval(`button .b -text Hi -bg red; pack append . .b {top}`)
	w, _ := app.NameToWindow(".b")
	shot := func() []byte {
		app.Update()
		s, err := app.Disp.Screenshot(w.XID)
		if err != nil {
			t.Fatal(err)
		}
		return s.Pixels
	}
	before, pixels := app.MustEval(`.b configure`), shot()
	for _, script := range []string{
		`.b configure -background nosuchcolor`,
		`.b configure -font big -background nosuchcolor`,
		`.b configure -text Bye -nosuchoption x`,
		`.b configure -text Bye -relief`,
		`.b configure -bg blue -bg nosuchcolor`,
	} {
		if _, err := app.Eval(script); err == nil {
			t.Errorf("%q succeeds, want an error", script)
		}
		if got := app.MustEval(`.b configure`); got != before {
			t.Errorf("after %q: configure lists\n%s\nwant\n%s", script, got, before)
		}
	}
	// A later call succeeds and redraws the widget as it was.
	app.MustEval(`.b configure -text Hi`)
	if !bytes.Equal(shot(), pixels) {
		t.Error("the button's pixels changed")
	}
	app.MustEval(`.b configure -borderwidth 3`)
	if got := app.MustEval(`lindex [.b configure -borderwidth] 4`); got != "3" {
		t.Errorf("-borderwidth = %q, want 3", got)
	}
}

// FuzzConfigure runs "$w configure opt value" on a new widget of any
// class. configure never panics; a call that fails leaves "$w
// configure" as it was; a call that succeeds reports value as opt's
// current value, at index 4 of "$w configure opt" (of its target's, for
// a synonym).
func FuzzConfigure(f *testing.F) {
	app, err := core.NewApp(core.Options{Name: "fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(app.Close)
	app.Interp.Out = io.Discard
	var classes []string
	for _, row := range widget.Commands() {
		classes = append(classes, row.Name)
	}
	// describe returns the elements of "$w configure opt", following a
	// synonym to its target.
	var describe func(opt string) ([]string, error)
	describe = func(opt string) ([]string, error) {
		if _, err := app.Interp.SetGlobal("q", opt); err != nil {
			return nil, err
		}
		d, err := app.Eval(`.w configure $q`)
		if err != nil {
			return nil, err
		}
		e, err := tcl.ParseList(d)
		if err == nil && len(e) == 2 {
			return describe(e[1])
		}
		return e, err
	}
	// Seeds: every option of every class, with its default value.
	for _, class := range classes {
		app.MustEval(class + " .w")
		list, _ := tcl.ParseList(app.MustEval(`.w configure`))
		for _, d := range list {
			e, _ := tcl.ParseList(d)
			value := "1"
			if len(e) == 5 {
				value = e[3]
			}
			f.Add(class, e[0], value)
		}
		app.MustEval(`destroy .w`)
	}
	f.Add("button", "-background", "nosuchcolor")
	f.Add("button", "-borderwidth", "3.5")
	f.Add("button", "-b", "1")
	f.Fuzz(func(t *testing.T, class, opt, value string) {
		if !slices.Contains(classes, class) {
			return
		}
		if _, err := app.Eval(class + " .w"); err != nil {
			t.Fatalf("%s .w: %v", class, err)
		}
		defer app.MustEval(`destroy .w`)
		before := app.MustEval(`.w configure`)
		for name, v := range map[string]string{"opt": opt, "value": value} {
			if _, err := app.Interp.SetGlobal(name, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := app.Eval(`.w configure $opt $value`); err != nil {
			if got := app.MustEval(`.w configure`); got != before {
				t.Fatalf("%s configure %q %q failed (%v) and changed configure from\n%s\nto\n%s", class, opt, value, err, before, got)
			}
			return
		}
		d, err := describe(opt)
		if err != nil {
			t.Fatalf("%s configure %q %q succeeded, then describing it failed: %v", class, opt, value, err)
		}
		if d[4] != value {
			t.Fatalf("%s configure %q %q: configure %s reports %q", class, opt, value, d[0], d[4])
		}
	})
}
