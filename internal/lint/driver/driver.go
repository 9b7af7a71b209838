// Package driver loads and type-checks packages for the qsmpilint suite
// without golang.org/x/tools: the module is hermetic (zero third-party
// requirements), so package loading rides on `go list -export -deps -json`
// — the toolchain compiles export data into the build cache and tells us
// where it landed — and type-checking uses the stock go/types checker with
// a gc-export-data importer. Load is the one way in: `qsmpilint ./...`
// and bench/ (through Check), the repo-is-clean test and the linttest
// fixture runner all go through it, and CheckPackage is the one check of
// a package that CheckAll and linttest share. `go list` is not given
// -test, so _test.go files are never loaded (DESIGN.md §9).
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

// A Package is the slice of `go list` output the driver needs. A
// package's analyzers read the collective tables of what it imports, so
// CheckAll checks the module packages in Imports first.
type Package struct {
	Dir        string
	ImportPath string
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
	Pkgs    []*Package        // in go list order: each after its imports
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// Load runs `go list -export -deps -json` over the patterns (from dir) and
// builds a Loader.
func Load(dir string, patterns ...string) (*Loader, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,Imports,Standard,DepOnly",
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
// safe for concurrent use, so each of CheckAll's par checks at a time
// holds its own; the serial callers share l.imp.
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

// CheckPackage parses p's Go files with their comments (the //lint:allow
// directives live there), type-checks them as p.ImportPath through imp
// and runs the suite on the package, which reads the collective tables of
// its imports through published. It returns the pass, whose Collectives
// is the package's table for the caller to publish, and the diagnostics
// of analysis.Pass.RunSuite.
func (l *Loader) CheckPackage(p *Package, imp types.Importer, published func(string) map[string]string, analyzers []*analysis.Analyzer) (*analysis.Pass, []analysis.Diagnostic, error) {
	pass := &analysis.Pass{
		Fset: l.Fset,
		TypesInfo: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
			Instances:  map[*ast.Ident]types.Instance{},
		},
		Published: published,
	}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		pass.Files = append(pass.Files, f)
	}
	var err error
	conf := types.Config{Importer: imp}
	if pass.Pkg, err = conf.Check(p.ImportPath, l.Fset, pass.Files, pass.TypesInfo); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", p.ImportPath, err)
	}
	return pass, pass.RunSuite(analyzers), nil
}

// CheckAll runs CheckPackage over every loaded module package, at most
// par at a time, and returns the findings sorted, so the output is
// byte-identical at any parallelism. `go list -deps` lists a package
// after everything it imports (depth-first post-order), and the packages
// start in that order. Each waits for its module imports to finish: a
// package publishes its table before its done channel closes, so a
// dependent reads the tables of its whole import closure after the waits
// that order them. A package one of whose imports failed is skipped, and
// the first error in go list order is returned. DepOnly packages publish
// their tables and report nothing. Each check in flight holds its own
// importer (gc export-data importers are not concurrency-safe); the
// FileSet is shared and safe.
func (l *Loader) CheckAll(analyzers []*analysis.Analyzer, par int) ([]Finding, error) {
	type unit struct {
		p        *Package
		done     chan struct{}
		failed   bool
		err      error
		table    map[string]string
		findings []Finding
	}
	var units []*unit
	byPath := map[string]*unit{}
	for _, p := range l.Pkgs {
		if !p.Standard && len(p.GoFiles) > 0 {
			u := &unit{p: p, done: make(chan struct{})}
			units = append(units, u)
			byPath[p.ImportPath] = u
		}
	}
	published := func(path string) map[string]string {
		if u := byPath[path]; u != nil {
			return u.table
		}
		return nil
	}
	// Every package gets a goroutine that parks until its imports are
	// done; importers is the semaphore that bounds the checks in flight,
	// so a slot never idles behind a package whose imports are unfinished.
	importers := make(chan types.Importer, max(par, 1))
	for range cap(importers) {
		importers <- l.newImporter()
	}
	for _, u := range units {
		go func() {
			defer close(u.done)
			for _, path := range u.p.Imports {
				if dep := byPath[path]; dep != nil {
					<-dep.done
					u.failed = u.failed || dep.failed
				}
			}
			if u.failed {
				return
			}
			imp := <-importers
			defer func() { importers <- imp }()
			pass, diags, err := l.CheckPackage(u.p, imp, published, analyzers)
			if err != nil {
				u.failed, u.err = true, err
				return
			}
			u.table = pass.Collectives
			if u.p.DepOnly {
				return
			}
			for _, d := range diags {
				u.findings = append(u.findings, Finding{Analyzer: d.Analyzer, Pos: l.Fset.Position(d.Pos), Message: d.Message})
			}
		}()
	}
	var findings []Finding
	var err error
	for _, u := range units {
		<-u.done
		if err == nil {
			err = u.err
		}
		findings = append(findings, u.findings...)
	}
	if err != nil {
		return nil, err
	}
	sortFindings(findings)
	return findings, nil
}

// Check is the entry point: load the patterns from dir and run
// the suite over every package, GOMAXPROCS packages at a time.
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
