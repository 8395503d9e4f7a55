package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// checkFixture runs a fresh Runner over one target and returns the
// formatted diagnostics.
func checkFixture(t *testing.T, target string) []string {
	t.Helper()
	r := NewRunner()
	if err := r.Check(target); err != nil {
		t.Fatalf("Check(%q): %v", target, err)
	}
	var got []string
	for _, d := range r.Finish() {
		got = append(got, d.String())
	}
	return got
}

func assertDiags(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestFixtureScripts checks every seeded-bad .tcl fixture against its
// exact diagnostics — positions included.
func TestFixtureScripts(t *testing.T) {
	cases := []struct {
		file string
		want []string
	}{
		{"unknown.tcl", []string{
			`testdata/unknown.tcl:3:1: unknown command "frobnicate" [unknown-command]`,
		}},
		{"arity.tcl", []string{
			`testdata/arity.tcl:2:1: wrong # args for "set": got 0, want 1 to 2 [arity]`,
			`testdata/arity.tcl:3:1: wrong # args for "wm": got 1, want 2 to 3 [arity]`,
			`testdata/arity.tcl:4:1: wrong # args for "winfo" containing: got 1, want 2 [arity]`,
		}},
		{"brace.tcl", []string{
			`testdata/brace.tcl:2:19: missing close-brace [parse]`,
		}},
		{"deferred.tcl", []string{
			`testdata/deferred.tcl:4:18: unknown command "hilight" [unknown-command]`,
		}},
		{"expr.tcl", []string{
			`testdata/expr.tcl:3:10: expression syntax error: premature end of expression [expr]`,
			`testdata/expr.tcl:6:18: expression syntax error: syntax error in expression at "* 4" [expr]`,
		}},
		{"path.tcl", []string{
			`testdata/path.tcl:2:8: bad window path name ".a..b" [path]`,
			`testdata/path.tcl:3:9: bad window path name ".x." [path]`,
		}},
		{"instance.tcl", []string{
			`testdata/instance.tcl:3:1: wrong # args for ".lb" size: got 1, want 0 [arity]`,
			`testdata/instance.tcl:4:1: wrong # args for ".lb" select from: got 0, want 1 [arity]`,
			`testdata/instance.tcl:7:4: bad option "frob" to ".b": should be activate, configure, deactivate, flash, or invoke [arity]`,
			`testdata/instance.tcl:8:12: bad option "x" to ".lb" select: should be clear, from, set, or to [arity]`,
			`testdata/instance.tcl:9:1: wrong # args for ".unknown": got 0, want at least 1 [arity]`,
		}},
		{"bind.tcl", []string{
			`testdata/bind.tcl:4:14: unknown command "hilight" [unknown-command]`,
			`testdata/bind.tcl:5:16: unknown command "hilight" [unknown-command]`,
			`testdata/bind.tcl:6:22: unknown command "hilight" [unknown-command]`,
			`testdata/bind.tcl:7:9: bad event type or keysym "Foo" in binding <Foo> [binding]`,
			`testdata/bind.tcl:8:11: bad event type or keysym "Foo" in binding <Foo> [binding]`,
		}},
		{"good.tcl", nil},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			assertDiags(t, checkFixture(t, filepath.Join("testdata", tc.file)), tc.want)
		})
	}
}

// TestLocksFixture exercises the lock-discipline analyzer: only the
// methods that skip (or hold the wrong one of several) locks are
// flagged; lock-held, defer-unlock, RWMutex read-side and "mu held"
// documented methods are not — including on a generic receiver, whose
// type name the analyzer must unwrap from shard[V].
func TestLocksFixture(t *testing.T) {
	assertDiags(t, checkFixture(t, filepath.Join("testdata", "locks")), []string{
		`testdata/locks/deferargs.go:29:32: deferbox.n (guarded by mu) accessed without holding mu [locks]`,
		`testdata/locks/locks.go:23:11: counter.count (guarded by mu) accessed without holding mu [locks]`,
		`testdata/locks/multi.go:36:4: registry.state (guarded by stateMu) accessed without holding stateMu [locks]`,
		`testdata/locks/multi.go:50:11: registry.tab (guarded by tabMu) accessed without holding tabMu [locks]`,
		`testdata/locks/multi.go:75:14: shard.m (guarded by mu) accessed without holding mu [locks]`,
	})
}

// TestSuppression checks the tkcheck:ignore escape hatch: a rule list
// suppresses only those rules for the next command, and a bare ignore
// suppresses everything.
func TestSuppression(t *testing.T) {
	reg := NewRegistry()
	src := "# tkcheck:ignore unknown-command\nmystery1\n# tkcheck:ignore\nmystery2 {\nmystery3\n"
	got := LintScriptSource("s.tcl", src, reg)
	if len(got) != 1 || got[0].Rule != "parse" {
		t.Fatalf("diags = %v, want only the unsuppressed parse error", got)
	}
	// The ignore applies to the next command only.
	got = LintScriptSource("s.tcl", "# tkcheck:ignore\nmystery1\nmystery2\n", reg)
	if len(got) != 1 || got[0].Line != 3 {
		t.Fatalf("diags = %v, want only line 3 flagged", got)
	}
}

// TestGoScriptExtraction lints scripts embedded in Go sources: direct
// raw literals keep exact positions, identifier references to string
// constants are followed, and os.WriteFile script payloads are linted.
func TestGoScriptExtraction(t *testing.T) {
	dir := t.TempDir()
	src := `package p

const boot = ` + "`" + `set x 1
badcmd1 $x
` + "`" + `

func run(app interface{ MustEval(string) string }) {
	app.MustEval(boot)
	app.MustEval(` + "`badcmd2`" + `)
	os.WriteFile("x.tcl", []byte(` + "`badcmd3`" + `), 0o644)
	app.MustEval("badcmd4")
}
`
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got := checkFixture(t, path)
	want := []string{
		path + `:4:1: unknown command "badcmd1" [unknown-command]`,
		path + `:9:16: unknown command "badcmd2" [unknown-command]`,
		path + `:10:32: unknown command "badcmd3" [unknown-command]`,
		path + `:11:15: unknown command "badcmd4" [unknown-command]`,
	}
	assertDiags(t, got, want)
}

// TestProcSharingAcrossScripts: a proc defined in one Eval literal is
// known to every other script in the same file (the jukebox pattern).
func TestProcSharingAcrossScripts(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nfunc run(app interface{ MustEval(string) string }) {\n" +
		"\tapp.MustEval(`proc play {} {bell}`)\n" +
		"\tapp.MustEval(`play`)\n" +
		"}\n"
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	assertDiags(t, checkFixture(t, path), nil)
}

// TestLockOrderFixture exercises the whole-program lock-order
// analyzer: the declared chain on box is enforced edge by edge
// (direct, through a leaf group, across independent chains, and one
// call level deep), cycles are reported whether or not the mutexes are
// declared, nesting two mutexes of one class is reported however they
// are ordered, and mutexes reached through promoted fields keep the
// class of the struct that declares them.
func TestLockOrderFixture(t *testing.T) {
	assertDiags(t, checkFixture(t, filepath.Join("testdata", "lockorder")), []string{
		`testdata/lockorder/lockorder.go:43:2: box.first acquired while box.second is held, contradicting the declared lock order (box.first is ordered before box.second) [lockorder]`,
		`testdata/lockorder/lockorder.go:43:2: lock-order cycle: box.first -> box.second -> box.first [lockorder]`,
		`testdata/lockorder/lockorder.go:51:2: box.leafB acquired while box.leafA is held, but both are members of the same lock-order leaf group (group members must not nest) [lockorder]`,
		`testdata/lockorder/lockorder.go:59:2: box.solo acquired while box.first is held, but the lock-order declaration puts them on independent chains (they must never be held together) [lockorder]`,
		`testdata/lockorder/lockorder.go:74:2: box.leafA acquired while box.leafB is held (via call to box.lockLeafA), but both are members of the same lock-order leaf group (group members must not nest) [lockorder]`,
		`testdata/lockorder/lockorder.go:74:2: lock-order cycle: box.leafA -> box.leafB -> box.leafA (via call to box.lockLeafA) [lockorder]`,
		`testdata/lockorder/lockorder.go:85:2: cell.mu acquired in orderedPair while another cell.mu is already held [lockorder]`,
		`testdata/lockorder/lockorder.go:93:2: cell.mu acquired in unorderedPair while another cell.mu is already held [lockorder]`,
		`testdata/lockorder/lockorder.go:108:2: box.solo acquired while box.leafB is held, but the lock-order declaration puts them on independent chains (they must never be held together) [lockorder]`,
	})
}

// TestArgvFixture exercises the argument-lifetime analyzer: each command
// in bad.go keeps its args one way (a field, a field through a helper,
// a package-level variable through a local, a map, a channel, a
// returned error, a goroutine, a stored closure, a closure handed to
// time.AfterFunc, the enclosing function's variable, and a subcommand
// procedure's field), and nothing in clean.go is reported.
func TestArgvFixture(t *testing.T) {
	const msg = "; they are valid only during the call, so keep a copy (slices.Clone) [argv]"
	assertDiags(t, checkFixture(t, filepath.Join("testdata", "argv")), []string{
		`testdata/argv/bad.go:25:2: a command's args are kept in a field` + msg,
		`testdata/argv/bad.go:35:2: a command's args are kept in a field (via call to widget.install)` + msg,
		`testdata/argv/bad.go:43:2: a command's args are kept in a package-level variable` + msg,
		`testdata/argv/bad.go:48:2: a command's args are kept in a map` + msg,
		`testdata/argv/bad.go:53:2: a command's args are kept in a channel` + msg,
		`testdata/argv/bad.go:62:13: a command's args are kept in a returned value` + msg,
		`testdata/argv/bad.go:66:2: a command's args are kept in a goroutine` + msg,
		`testdata/argv/bad.go:71:2: a command's args are kept in a field` + msg,
		`testdata/argv/bad.go:76:30: a command's args are kept in a closure passed to a function that may keep it` + msg,
		`testdata/argv/bad.go:85:3: a command's args are kept in a variable declared outside the command` + msg,
		`testdata/argv/bad.go:101:2: a command's args are kept in a field` + msg,
	})
}

// TestLockCycleFromReorderedAcquisitions is the reorder acceptance
// check: two functions taking the same two mutexes in opposite orders
// — no declaration anywhere — must produce a cycle diagnostic naming
// both.
func TestLockCycleFromReorderedAcquisitions(t *testing.T) {
	src := `package p

import "sync"

type s struct{ a, b sync.Mutex }

func (x *s) f() { x.a.Lock(); x.b.Lock(); x.b.Unlock(); x.a.Unlock() }
func (x *s) g() { x.b.Lock(); x.a.Lock(); x.a.Unlock(); x.b.Unlock() }
`
	path := filepath.Join(t.TempDir(), "reorder.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	assertDiags(t, checkFixture(t, path), []string{
		path + `:8:31: lock-order cycle: s.a -> s.b -> s.a [lockorder]`,
	})
}

// TestPathsThatLeaveDoNotJoin pins the shared walker's branch rule: a
// switch case that returns and an if branch that panics do not flow
// into the code after them, while a branch that falls through does.
func TestPathsThatLeaveDoNotJoin(t *testing.T) {
	src := `package p

import "sync"

type s struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (x *s) caseReturns(k int) {
	x.mu.Lock()
	switch k {
	case 1:
		x.mu.Unlock()
		return
	}
	x.n++
	x.mu.Unlock()
}

func (x *s) branchPanics(k int) {
	x.mu.Lock()
	if k == 1 {
		x.mu.Unlock()
		panic(k)
	}
	x.n++
	x.mu.Unlock()
}

func (x *s) branchFallsThrough(k int) {
	x.mu.Lock()
	if k == 1 {
		x.mu.Unlock()
	}
	x.n++
}
`
	path := filepath.Join(t.TempDir(), "paths.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	assertDiags(t, checkFixture(t, path), []string{
		path + `:36:4: s.n (guarded by mu) accessed without holding mu [locks]`,
	})
}

// TestMetricsRegistryFixture exercises the metrics-name registry: the
// documented literal, const, const-joined, wrapper and "prefix."+expr
// names all match, the undocumented counter and the stale registry
// entry are flagged from their respective sides, and a truly dynamic
// name is reported as uncheckable.
func TestMetricsRegistryFixture(t *testing.T) {
	assertDiags(t, checkFixture(t, filepath.Join("testdata", "metricsreg")), []string{
		`testdata/metricsreg/metrics.go:32:12: metric "undocumented.count" is not documented in the metrics registry (add it to the metrics-registry block in docs/observability.md) [metrics]`,
		`testdata/metricsreg/metrics.go:36:12: metric name is dynamic (not a string literal, package const, wrapper parameter, or "prefix."+expr) and cannot be checked against the registry [metrics]`,
		`testdata/metricsreg/registry.md:12:1: documented metric "ghost.metric" is not constructed anywhere in the scanned Go code (stale registry entry?) [metrics]`,
	})
}

// TestPkgdocFixture exercises the package-doc analyzer: the undocumented
// internal package is flagged at its package clause, the documented one
// is not, and packages outside an internal/ tree are exempt.
func TestPkgdocFixture(t *testing.T) {
	assertDiags(t, checkFixture(t, filepath.Join("testdata", "pkgdoc")+string(filepath.Separator)+"..."), []string{
		`testdata/pkgdoc/internal/nodoc/nodoc.go:1:1: package nodoc has no package doc comment (want a "Package ..." comment on one file's package clause) [pkgdoc]`,
	})
}

// TestTreeMutexOpsHaveClasses loads the packages make tkcheck checks
// and asserts that the lock analyzers name the mutex of every Lock,
// RLock, Unlock and RUnlock call of a sync or obs timed mutex, so that
// a form they cannot name fails here instead of dropping out of the
// lock graph unseen.
func TestTreeMutexOpsHaveClasses(t *testing.T) {
	for _, leg := range []struct {
		tests   bool
		targets []string
	}{
		{false, []string{"../../examples/...", "../../cmd/...", "../../internal/..."}},
		{true, []string{"../../cmd/wish"}},
	} {
		r := NewRunner()
		r.IncludeTests = leg.tests
		for _, target := range leg.targets {
			if err := r.Check(target); err != nil {
				t.Fatal(err)
			}
		}
		ops := 0
		for _, p := range r.loadGo() {
			for _, f := range p.files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch sel.Sel.Name {
					case "Lock", "RLock", "Unlock", "RUnlock":
					default:
						return true
					}
					pos := p.fset.Position(call.Pos())
					if p.info.Selections[sel] == nil {
						t.Errorf("%s: no type information for %s", pos, types.ExprString(call.Fun))
					} else if x, _, ok := mutexOp(p.info, call); ok {
						ops++
						if lockClass(p.info, x) == "" {
							t.Errorf("%s: the lock analyzers cannot name the mutex of %s", pos, types.ExprString(call.Fun))
						}
					}
					return true
				})
			}
		}
		if errs := r.Errs(); len(errs) > 0 {
			t.Fatal(errs)
		}
		if ops == 0 {
			t.Fatalf("%v: no mutex operations found", leg.targets)
		}
		t.Logf("%v: %d mutex operations", leg.targets, ops)
	}
}
