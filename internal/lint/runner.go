package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Runner drives a tkcheck run over a set of targets: .tcl files are
// linted directly, Go files have their Eval/MustEval script literals
// linted, each Go package is type-checked and analyzed (lock
// discipline, lock order, command argument lifetimes, package docs),
// and Markdown files feed the metrics registry's doc side. The metrics
// facts accumulate across everything scanned and are evaluated by
// Finish.
//
// Check only collects work; Finish runs it and sorts the diagnostics,
// so the output is a deterministic function of the inputs. Read, parse
// and export-data failures discovered by Finish are reported by Errs.
type Runner struct {
	Reg *Registry
	// IncludeTests lints _test.go files too. Off by default: tests
	// deliberately feed the interpreter bad scripts to exercise its
	// error paths.
	IncludeTests bool

	tclFiles []string
	mdFiles  []string
	goDirs   []goDir

	fset    *token.FileSet
	metrics *MetricsFacts
	diags   []Diag
	errs    []error
	timings map[string]time.Duration
}

// goDir is one directory's queued Go files.
type goDir struct {
	dir   string
	paths []string
}

// NewRunner builds a Runner with a fresh registry and fact state.
func NewRunner() *Runner {
	return &Runner{
		Reg:     NewRegistry(),
		fset:    token.NewFileSet(),
		metrics: NewMetricsFacts(),
		timings: make(map[string]time.Duration),
	}
}

// Check queues one target: a .tcl, .go, or .md file, a directory, or a
// "dir/..." pattern. Walk and stat problems are reported immediately;
// the queued work itself runs in Finish.
func (r *Runner) Check(target string) error {
	if rest, ok := strings.CutSuffix(target, "..."); ok {
		root := filepath.Clean(rest)
		if root == "" {
			root = "."
		}
		return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return r.queueDir(path)
		})
	}
	info, err := os.Stat(target)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return r.queueDir(target)
	}
	switch {
	case strings.HasSuffix(target, ".tcl"):
		r.tclFiles = append(r.tclFiles, target)
	case strings.HasSuffix(target, ".go"):
		r.goDirs = append(r.goDirs, goDir{dir: filepath.Dir(target), paths: []string{target}})
	case strings.HasSuffix(target, ".md"):
		r.mdFiles = append(r.mdFiles, target)
	default:
		return fmt.Errorf("tkcheck: don't know how to check %q (want a directory, dir/..., *.tcl, *.go or *.md)", target)
	}
	return nil
}

func (r *Runner) queueDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var goFiles []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tcl"):
			r.tclFiles = append(r.tclFiles, filepath.Join(dir, name))
		case strings.HasSuffix(name, ".md"):
			r.mdFiles = append(r.mdFiles, filepath.Join(dir, name))
		case strings.HasSuffix(name, "_test.go"):
			if r.IncludeTests {
				goFiles = append(goFiles, filepath.Join(dir, name))
			}
		case strings.HasSuffix(name, ".go"):
			goFiles = append(goFiles, filepath.Join(dir, name))
		}
	}
	if len(goFiles) > 0 {
		r.goDirs = append(r.goDirs, goDir{dir: dir, paths: goFiles})
	}
	return nil
}

// Finish runs the queued work, evaluates the cross-target facts, and
// returns all diagnostics, sorted. Check Errs afterwards for read,
// parse and export-data failures.
func (r *Runner) Finish() []Diag {
	for _, path := range r.tclFiles {
		r.checkTclFile(path)
	}
	for _, path := range r.mdFiles {
		r.checkDocFile(path)
	}
	for _, p := range r.loadGo() {
		r.timed("metrics", func() { r.metrics.collectPackage(p) })
		r.timed("locks", func() { r.diags = append(r.diags, checkLocks(p)...) })
		r.timed("lockorder", func() { r.diags = append(r.diags, checkLockOrder(p)...) })
		r.timed("argv", func() { r.diags = append(r.diags, checkArgv(p)...) })
		r.timed("pkgdoc", func() { r.diags = append(r.diags, CheckPackageDoc(p.dir, p.fset, p.files)...) })
	}
	r.tclFiles, r.mdFiles, r.goDirs = nil, nil, nil
	r.diags = append(r.diags, r.metrics.Diags()...)
	SortDiags(r.diags)
	return r.diags
}

// Errs returns read, parse and export-data failures encountered by
// Finish, in a deterministic order.
func (r *Runner) Errs() []error {
	sort.Slice(r.errs, func(i, j int) bool { return r.errs[i].Error() < r.errs[j].Error() })
	return r.errs
}

// AnalyzerTiming is the wall time one analyzer spent across all
// targets.
type AnalyzerTiming struct {
	Name     string
	Duration time.Duration
}

// Timings reports per-analyzer cost, sorted by name.
func (r *Runner) Timings() []AnalyzerTiming {
	out := make([]AnalyzerTiming, 0, len(r.timings))
	for name, d := range r.timings {
		out = append(out, AnalyzerTiming{Name: name, Duration: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *Runner) timed(name string, fn func()) {
	begin := time.Now()
	fn()
	r.timings[name] += time.Since(begin)
}

func (r *Runner) checkTclFile(path string) {
	src, err := os.ReadFile(path)
	if err != nil {
		r.errs = append(r.errs, err)
		return
	}
	r.timed("scripts", func() {
		r.diags = append(r.diags, LintScriptSource(path, string(src), r.Reg)...)
	})
}

func (r *Runner) checkDocFile(path string) {
	src, err := os.ReadFile(path)
	if err != nil {
		r.errs = append(r.errs, err)
		return
	}
	r.timed("metrics", func() {
		r.metrics.CollectDoc(path, string(src))
	})
}

// loadGo parses the queued Go files, lints their script literals, and
// returns them type-checked, one goPackage per package clause in each
// directory; none when export data cannot be had.
func (r *Runner) loadGo() []*goPackage {
	var pkgs []*goPackage
	for _, d := range r.goDirs {
		pkgs = append(pkgs, r.parseGoFiles(d)...)
	}
	var err error
	r.timed("types", func() { err = typeCheck(r.fset, pkgs) })
	if err != nil {
		// Without their imports' types the analyzers would misread
		// the packages; the error says why they did not run.
		r.errs = append(r.errs, err)
		return nil
	}
	return pkgs
}

// parseGoFiles parses one directory's Go files and groups them by
// package clause, so that with -tests an external package main_test
// is checked apart from package main.
func (r *Runner) parseGoFiles(d goDir) []*goPackage {
	var pkgs []*goPackage
	byName := make(map[string]*goPackage)
	for _, path := range d.paths {
		src, err := os.ReadFile(path)
		if err != nil {
			r.errs = append(r.errs, err)
			return nil
		}
		var f *ast.File
		begin := time.Now()
		f, err = parser.ParseFile(r.fset, path, src, parser.ParseComments)
		r.timings["parse"] += time.Since(begin)
		if err != nil {
			r.errs = append(r.errs, fmt.Errorf("tkcheck: %v", err))
			return nil
		}
		r.timed("scripts", func() {
			r.diags = append(r.diags, lintGoFile(r.fset, f, string(src), path, r.Reg)...)
		})
		p := byName[f.Name.Name]
		if p == nil {
			p = &goPackage{dir: d.dir, fset: r.fset}
			byName[f.Name.Name] = p
			pkgs = append(pkgs, p)
		}
		p.files = append(p.files, f)
	}
	return pkgs
}
