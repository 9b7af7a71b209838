// Package linttest runs an analyzer over a fixture package under
// internal/lint/testdata/src and checks its diagnostics against `// want`
// expectations, analysistest-style: a comment
//
//	// want `regexp`
//
// on a line asserts exactly that a diagnostic matching the regexp is
// reported on that line; any diagnostic without a matching want, or want
// without a matching diagnostic, fails the test. Fixtures may import real
// repo packages (qsmpi/internal/trace, bufpool, parsweep, ...) and the
// std library: imports resolve through export data from `go list -export`,
// shared across all tests in the process.
package linttest

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"qsmpi/internal/lint/analysis"
	"qsmpi/internal/lint/driver"
)

var (
	loadOnce sync.Once
	loader   *driver.Loader
	loadErr  error
)

// stdForFixtures are std packages fixtures may import beyond the repo's
// own dependency closure.
var stdForFixtures = []string{
	"bytes", "fmt", "io", "math/rand", "os", "sort", "strconv", "strings", "time",
}

// ModuleRoot locates the repository root by walking up from the working
// directory to the nearest go.mod.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatalf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Loader returns the process-wide export-data loader, building it on
// first use.
func Loader(t *testing.T) *driver.Loader {
	t.Helper()
	root := ModuleRoot(t)
	loadOnce.Do(func() {
		patterns := append([]string{"./..."}, stdForFixtures...)
		loader, loadErr = driver.Load(root, patterns...)
	})
	if loadErr != nil {
		t.Fatalf("loading export data: %v", loadErr)
	}
	return loader
}

// want is one expectation: a diagnostic matching re on (file, line).
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRx = regexp.MustCompile("// want `([^`]*)`")

// Run analyzes the fixture package rooted at testdata/src/<pkgPath>
// (type-checked under import path pkgPath, so path-scoped analyzers see
// the intended package identity) and checks diagnostics against wants.
// Each dep (an import path under testdata/src) is checked first and its
// collective table published to what follows, as the driver does between
// packages; this is how the helper-indirection fixtures prove the tables
// see through package boundaries.
func Run(t *testing.T, a *analysis.Analyzer, pkgPath string, deps ...string) {
	t.Helper()
	runFixture(t, []*analysis.Analyzer{a}, pkgPath, deps, false)
}

// RunSuite runs a full analyzer suite plus the suppression audit over the
// fixture — what the real driver does — so fixtures can assert audit
// diagnostics and cross-analyzer suppression behavior.
func RunSuite(t *testing.T, analyzers []*analysis.Analyzer, pkgPath string, deps ...string) {
	t.Helper()
	runFixture(t, analyzers, pkgPath, deps, true)
}

// fixtureImporter resolves fixture dep packages from memory and
// everything else through the loader's export-data importer.
type fixtureImporter struct {
	base types.Importer
	pkgs map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	return fi.base.Import(path)
}

// fixture lists one fixture package's directory and Go files.
func fixture(t *testing.T, pkgPath string) *driver.Package {
	t.Helper()
	p := &driver.Package{
		ImportPath: pkgPath,
		Dir:        filepath.Join(ModuleRoot(t), "internal", "lint", "testdata", "src", filepath.FromSlash(pkgPath)),
	}
	ents, err := os.ReadDir(p.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			p.GoFiles = append(p.GoFiles, e.Name())
		}
	}
	if len(p.GoFiles) == 0 {
		t.Fatalf("no fixture files in %s", p.Dir)
	}
	return p
}

// runFixture checks the deps, then pkgPath, with driver.CheckPackage.
// Without audit, the suppression audit's diagnostics are dropped: a
// fixture of one analyzer may carry directives for others.
func runFixture(t *testing.T, analyzers []*analysis.Analyzer, pkgPath string, deps []string, audit bool) {
	t.Helper()
	l := Loader(t)
	fi := &fixtureImporter{base: l.Importer(), pkgs: map[string]*types.Package{}}
	tables := map[string]map[string]string{}
	published := func(path string) map[string]string { return tables[path] }
	var p *driver.Package
	var diags []analysis.Diagnostic
	for _, path := range append(deps, pkgPath) {
		p = fixture(t, path)
		pass, ds, err := l.CheckPackage(p, fi, published, analyzers)
		if err != nil {
			t.Fatalf("checking fixture %s: %v", path, err)
		}
		fi.pkgs[path], tables[path], diags = pass.Pkg, pass.Collectives, ds
	}

	wants := collectWants(t, p.Dir, p.GoFiles)
	for _, d := range diags {
		if d.Analyzer == analysis.SuppressionName && !audit {
			continue
		}
		pos := l.Fset.Position(d.Pos)
		if w := matchWant(wants, filepath.Base(pos.Filename), pos.Line, d.Message); w != nil {
			w.hit = true
			continue
		}
		t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants scans fixture sources for `// want` comments.
func collectWants(t *testing.T, dir string, names []string) []*want {
	t.Helper()
	var wants []*want
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
				}
				wants = append(wants, &want{file: name, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// matchWant finds an unconsumed want for the diagnostic, or nil.
func matchWant(wants []*want, file string, line int, msg string) *want {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}
