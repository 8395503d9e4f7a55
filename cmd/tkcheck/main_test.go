package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture paths are relative to this package directory.
const fixtures = "../../internal/lint/testdata"

func runCheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestExitNonZeroOnBadFixtures(t *testing.T) {
	cases := []struct {
		target string
		want   string // a substring of the expected diagnostic
	}{
		{fixtures + "/unknown.tcl", `unknown.tcl:3:1: unknown command "frobnicate"`},
		{fixtures + "/arity.tcl", `arity.tcl:2:1: wrong # args for "set"`},
		{fixtures + "/brace.tcl", `brace.tcl:2:19: missing close-brace`},
		{fixtures + "/deferred.tcl", `deferred.tcl:4:18: unknown command "hilight"`},
		{fixtures + "/expr.tcl", `expr.tcl:3:10: expression syntax error`},
		{fixtures + "/path.tcl", `path.tcl:2:8: bad window path name ".a..b"`},
		{fixtures + "/instance.tcl", `instance.tcl:3:1: wrong # args for ".lb" size`},
		{fixtures + "/bind.tcl", `bind.tcl:8:11: bad event type or keysym "Foo" in binding <Foo>`},
		{fixtures + "/locks", `locks.go:23:11: counter.count (guarded by mu) accessed without holding mu`},
		{fixtures + "/argv", `bad.go:25:2: a command's args are kept in a field`},
	}
	for _, tc := range cases {
		t.Run(tc.target, func(t *testing.T) {
			code, out, _ := runCheck(t, tc.target)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

func TestExitZeroOnRepoScripts(t *testing.T) {
	code, out, errOut := runCheck(t, "../../examples/...")
	if code != 0 {
		t.Fatalf("examples: exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	code, out, errOut = runCheck(t, "-tests", "../../cmd/wish")
	if code != 0 {
		t.Fatalf("cmd/wish -tests: exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestGoldenHumanOutput pins the full human-mode stdout for a fixture
// with diagnostics from both sides of the metrics registry: exact
// lines, exact order, and the trailing problem count.
func TestGoldenHumanOutput(t *testing.T) {
	code, out, errOut := runCheck(t, "-time", fixtures+"/metricsreg")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, out)
	}
	want := fixtures + `/metricsreg/metrics.go:32:12: metric "undocumented.count" is not documented in the metrics registry (add it to the metrics-registry block in docs/observability.md) [metrics]
` + fixtures + `/metricsreg/metrics.go:36:12: metric name is dynamic (not a string literal, package const, wrapper parameter, or "prefix."+expr) and cannot be checked against the registry [metrics]
` + fixtures + `/metricsreg/registry.md:12:1: documented metric "ghost.metric" is not constructed anywhere in the scanned Go code (stale registry entry?) [metrics]
tkcheck: 3 problem(s)
`
	if out != want {
		t.Errorf("stdout mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
	// -time reports to stderr only, so golden stdout stays stable; the
	// analyzers that ran over this fixture must each show up.
	for _, name := range []string{"parse", "metrics", "lockorder", "locks"} {
		if !strings.Contains(errOut, "tkcheck: "+name) {
			t.Errorf("stderr timing output missing %q:\n%s", name, errOut)
		}
	}
}

// TestGoldenJSONOutput pins the -json report byte for byte, for the
// same fixture and for a clean run (empty diagnostics array, not
// null).
func TestGoldenJSONOutput(t *testing.T) {
	code, out, _ := runCheck(t, "-json", fixtures+"/metricsreg")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, out)
	}
	want := `{
  "problems": 3,
  "diagnostics": [
    {
      "file": "` + fixtures + `/metricsreg/metrics.go",
      "line": 32,
      "col": 12,
      "analyzer": "metrics",
      "severity": "error",
      "message": "metric \"undocumented.count\" is not documented in the metrics registry (add it to the metrics-registry block in docs/observability.md)"
    },
    {
      "file": "` + fixtures + `/metricsreg/metrics.go",
      "line": 36,
      "col": 12,
      "analyzer": "metrics",
      "severity": "error",
      "message": "metric name is dynamic (not a string literal, package const, wrapper parameter, or \"prefix.\"+expr) and cannot be checked against the registry"
    },
    {
      "file": "` + fixtures + `/metricsreg/registry.md",
      "line": 12,
      "col": 1,
      "analyzer": "metrics",
      "severity": "error",
      "message": "documented metric \"ghost.metric\" is not constructed anywhere in the scanned Go code (stale registry entry?)"
    }
  ]
}
`
	if out != want {
		t.Errorf("json mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}

	code, out, _ = runCheck(t, "-json", fixtures+"/good.tcl")
	if code != 0 {
		t.Fatalf("clean run: exit = %d, want 0\nstdout:\n%s", code, out)
	}
	want = "{\n  \"problems\": 0,\n  \"diagnostics\": []\n}\n"
	if out != want {
		t.Errorf("clean json mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestKnownFlag(t *testing.T) {
	code, _, _ := runCheck(t, fixtures+"/unknown.tcl")
	if code != 1 {
		t.Fatalf("without -known: exit = %d, want 1", code)
	}
	code, out, _ := runCheck(t, "-known", "frobnicate", fixtures+"/unknown.tcl")
	if code != 0 {
		t.Fatalf("with -known: exit = %d, want 0; output:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCheck(t); code != 2 {
		t.Error("no targets should exit 2")
	}
	if code, _, _ := runCheck(t, "no/such/file.tcl"); code != 2 {
		t.Error("missing target should exit 2")
	}
	if code, _, _ := runCheck(t, "-bogusflag"); code != 2 {
		t.Error("bad flag should exit 2")
	}
	// A Go package whose import has no export data cannot be
	// type-checked: that is an error, not a silent pass.
	dir := t.TempDir()
	src := "package p\n\nimport _ \"repro/internal/nosuch\"\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCheck(t, dir); code != 2 || !strings.Contains(errOut, "go list -export") {
		t.Errorf("unbuildable import: exit = %d, stderr %q; want 2 and the go list error", code, errOut)
	}
}
