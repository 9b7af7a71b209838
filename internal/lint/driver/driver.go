// Package driver loads and type-checks packages for the qsmpilint suite
// without golang.org/x/tools: the module is hermetic (zero third-party
// requirements), so package loading rides on `go list -export -deps -json`
// — the toolchain compiles export data into the build cache and tells us
// where it landed — and type-checking uses the stock go/types checker with
// a gc-export-data importer. Load is the one way in: `qsmpilint ./...`
// and bench/ (through Check), the repo-is-clean test and the linttest
// fixture runner all go through it. `go list` is not given -test, so
// _test.go files are never loaded (DESIGN.md §9).
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"

	"qsmpi/internal/lint/analysis"
)

// A Finding is one diagnostic with its position resolved.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// A Package is the slice of `go list` output the driver needs. Imports
// drives the dependency-ordered scheduling of CheckAll: a package's
// analyzers may consult facts exported by everything it imports, so the
// imports must be analyzed first.
type Package struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
}

// A Loader holds the export-data index for one `go list` invocation and
// type-checks packages against it.
type Loader struct {
	Fset    *token.FileSet
	Pkgs    []*Package        // in go list order
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// Load runs `go list -export -deps -json` over the patterns (from dir) and
// builds a Loader. extraStd lists std packages fixtures may import beyond
// the repo's own dependency closure.
func Load(dir string, patterns ...string) (*Loader, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,GoFiles,Imports,Standard,DepOnly",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		exports: map[string]string{},
	}
	dec := json.NewDecoder(&out)
	for {
		p := new(Package)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		l.Pkgs = append(l.Pkgs, p)
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	l.imp = l.newImporter()
	return l, nil
}

// newImporter builds a fresh gc export-data importer over the loader's
// (concurrency-safe) FileSet and export index. The importer itself is NOT
// safe for concurrent use, so CheckAll gives each worker its own; the
// serial entry points share l.imp.
func (l *Loader) newImporter() types.Importer {
	return importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Importer exposes the loader's shared (serial-use) importer, for
// callers — linttest — that compose it with synthetic fixture packages.
func (l *Loader) Importer() types.Importer {
	return l.imp
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// ParseFiles parses the named files (absolute or dir-relative) with
// comments retained — the //lint:allow directives live there.
func (l *Loader) ParseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkJob is one package dispatched to a CheckAll worker, with the
// published fact sets of its direct module dependencies (each already
// holds its own transitive closure).
type checkJob struct {
	p        *Package
	depFacts []*analysis.Facts
}

// checkResult is what a worker hands back: findings (empty for DepOnly
// packages — their facts matter, their diagnostics are not ours to
// report) and the package's merged fact set, which nobody writes again
// once it is published here.
type checkResult struct {
	p        *Package
	findings []Finding
	facts    *analysis.Facts
	err      error
}

// checkOne analyzes a single package with the given importer.
func (l *Loader) checkOne(job checkJob, imp types.Importer, analyzers []*analysis.Analyzer) checkResult {
	p := job.p
	files, err := l.ParseFiles(p.Dir, p.GoFiles)
	if err != nil {
		return checkResult{p: p, err: err}
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.ImportPath, l.Fset, files, info)
	if err != nil {
		return checkResult{p: p, err: fmt.Errorf("%s: %v", p.ImportPath, err)}
	}
	imports := analysis.NewFacts()
	for _, deps := range job.depFacts {
		imports.Merge(deps)
	}
	u := analysis.NewUnit(l.Fset, files, pkg, info, imports)
	diags, err := analysis.RunSuite(analyzers, u)
	if err != nil {
		return checkResult{p: p, err: fmt.Errorf("%s: %v", p.ImportPath, err)}
	}
	var findings []Finding
	if !p.DepOnly {
		for _, d := range diags {
			findings = append(findings, Finding{
				Analyzer: d.Analyzer,
				Pos:      l.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
	}
	// Re-export the dependency closure's facts alongside our own so a
	// dependent sees the transitive set from its direct imports alone.
	imports.Merge(u.Exports)
	return checkResult{p: p, findings: findings, facts: imports}
}

// CheckAll runs the suite over every loaded non-standard package, sharded
// across par workers. Packages are scheduled in dependency order so that
// fact producers finish before their consumers start; findings are sorted
// globally at the end, so the output is byte-identical at any
// parallelism. Each worker owns its importer (gc export-data importers
// are not concurrency-safe); the FileSet is shared and safe.
func (l *Loader) CheckAll(analyzers []*analysis.Analyzer, par int) ([]Finding, error) {
	if par < 1 {
		par = 1
	}

	// Targets: every module (non-std) package with sources. DepOnly
	// packages are analyzed for their facts but report nothing.
	byPath := map[string]*Package{}
	var targets []*Package
	for _, p := range l.Pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		targets = append(targets, p)
		byPath[p.ImportPath] = p
	}
	// Dependency graph restricted to targets.
	indegree := map[string]int{}
	dependents := map[string][]string{}
	moduleDeps := map[string][]string{}
	for _, p := range targets {
		indegree[p.ImportPath] = 0
	}
	for _, p := range targets {
		for _, imp := range p.Imports {
			if _, ok := byPath[imp]; !ok {
				continue
			}
			moduleDeps[p.ImportPath] = append(moduleDeps[p.ImportPath], imp)
			dependents[imp] = append(dependents[imp], p.ImportPath)
			indegree[p.ImportPath]++
		}
	}

	jobs := make(chan checkJob, len(targets))
	results := make(chan checkResult, len(targets))
	for w := 0; w < par; w++ {
		imp := l.newImporter()
		go func() {
			for job := range jobs {
				results <- l.checkOne(job, imp, analyzers)
			}
		}()
	}
	defer close(jobs)

	factsOf := map[string]*analysis.Facts{}
	dispatch := func(p *Package) {
		var deps []*analysis.Facts
		for _, d := range moduleDeps[p.ImportPath] {
			deps = append(deps, factsOf[d])
		}
		jobs <- checkJob{p: p, depFacts: deps}
	}
	// Seed with every leaf, in path order (scheduling order does not
	// affect output — findings are globally sorted — but determinism in
	// dispatch keeps wall-clock stable too).
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	for _, p := range targets {
		if indegree[p.ImportPath] == 0 {
			dispatch(p)
		}
	}

	var findings []Finding
	var firstErr error
	failed := map[string]bool{}
	done := 0
	// finish marks a package complete (analyzed or skipped because a
	// dependency failed) and releases or cancels its dependents — failures
	// must propagate, or the receive loop below would wait forever for
	// packages that can never be dispatched.
	var finish func(path string, ok bool)
	finish = func(path string, ok bool) {
		done++
		if !ok {
			failed[path] = true
		}
		for _, dep := range dependents[path] {
			indegree[dep]--
			if indegree[dep] != 0 {
				continue
			}
			blocked := false
			for _, d := range moduleDeps[dep] {
				if failed[d] {
					blocked = true
					break
				}
			}
			if blocked {
				finish(dep, false)
			} else {
				dispatch(byPath[dep])
			}
		}
	}
	for done < len(targets) {
		res := <-results
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			finish(res.p.ImportPath, false)
			continue
		}
		findings = append(findings, res.findings...)
		factsOf[res.p.ImportPath] = res.facts
		finish(res.p.ImportPath, true)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	sortFindings(findings)
	return findings, nil
}

// Check is the entry point: load the patterns from dir and run
// the suite over every package, sharded across GOMAXPROCS workers.
func Check(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	l, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return l.CheckAll(analyzers, runtime.GOMAXPROCS(0))
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
