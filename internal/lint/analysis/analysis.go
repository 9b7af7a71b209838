// Package analysis is a deliberately small, dependency-free miniature of
// the golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// type-checked package through a Pass and reports position-tagged
// diagnostics. The repo's module carries no third-party requirements (the
// simulator must build hermetically offline), so rather than importing
// x/tools this package mirrors the subset of its API the qsmpilint suite
// needs; cmd/qsmpilint drives it over `go list -export` output
// (internal/lint/driver).
//
// Suppression: every analyzer honors the directive
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory — a bare //lint:allow <analyzer> does not suppress,
// so every escape hatch documents why the invariant may be broken there
// (see DESIGN.md §9).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `qsmpilint -h`.
	Doc string
	// Run inspects the package and reports diagnostics via pass.Report.
	Run func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass holds one type-checked package being analyzed.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Imports holds the merged facts of the package's dependency closure
	// (read-only); Exports receives the facts this package proves. Either
	// may be nil when the driver carries no facts (single-analyzer fixture
	// runs); the accessor methods below tolerate that.
	Imports *Facts
	Exports *Facts
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ExportObjectFact records fact for the package-level object obj.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Exports != nil {
		p.Exports.ExportObject(obj, fact)
	}
}

// ImportObjectFact copies the fact of fact's concrete type recorded for
// obj — by a dependency, or by this pass earlier — into fact, reporting
// whether one existed. Own exports take precedence so intra-package
// fixpoints and cross-package lookups go through one call.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Exports != nil && p.Exports.ImportObject(obj, fact) {
		return true
	}
	return p.Imports.ImportObject(obj, fact)
}

// SuppressionName is the diagnostic label of the suppression audit run
// by RunSuite: an unused //lint:allow — one matching no diagnostic of its
// analyzer — is itself a diagnostic, so escape hatches cannot silently
// outlive the violation they excused. Audit findings are deliberately not
// suppressible; the fix is always to delete the stale directive.
const SuppressionName = "suppression"

// A Unit is one loaded, type-checked package flowing through the suite:
// the shared inputs every analyzer sees, the fact sets crossing the
// package boundary, and the record of which //lint:allow directives
// earned their keep. The driver and linttest both funnel through here so
// directive and fact semantics cannot drift between them.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Imports holds the merged facts of the dependency closure; Exports
	// accumulates this package's own proved facts across analyzers.
	Imports *Facts
	Exports *Facts

	// used records the positions of directives that suppressed at least
	// one diagnostic, for the suppression audit.
	used map[token.Pos]bool
}

// NewUnit builds a Unit over an already-loaded package. imports may be
// nil when the caller carries no cross-package facts.
func NewUnit(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, imports *Facts) *Unit {
	return &Unit{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Imports:   imports,
		Exports:   NewFacts(),
		used:      map[token.Pos]bool{},
	}
}

// Run executes one analyzer over the unit and returns the diagnostics
// that survive //lint:allow suppression, in report order.
func (u *Unit) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      u.Fset,
		Files:     u.Files,
		Pkg:       u.Pkg,
		TypesInfo: u.TypesInfo,
		Imports:   u.Imports,
		Exports:   u.Exports,
		Report: func(d Diagnostic) {
			d.Analyzer = a.Name
			if !u.allowed(a.Name, d.Pos) {
				diags = append(diags, d)
			}
		},
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	return diags, nil
}

// RunSuite executes every analyzer over the unit, then audits the
// package's //lint:allow directives: well-formed directives that
// suppressed nothing, and directives naming no analyzer in the suite, are
// appended as SuppressionName diagnostics.
func RunSuite(analyzers []*Analyzer, u *Unit) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		ds, err := u.Run(a)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	diags = append(diags, u.AuditSuppressions(known)...)
	return diags, nil
}

// AuditSuppressions returns a diagnostic for every //lint:allow directive
// that could never suppress anything: unknown analyzer name, or no
// diagnostic of its analyzer on the covered lines. Must run after every
// analyzer in known has run over the unit — before that, "unused" is not
// yet decidable.
func (u *Unit) AuditSuppressions(known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch {
				case !known[name]:
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: SuppressionName,
						Message: fmt.Sprintf(
							"//lint:allow names unknown analyzer %q: this directive can never suppress anything", name),
					})
				case !u.used[c.Pos()]:
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: SuppressionName,
						Message: fmt.Sprintf(
							"unused //lint:allow %s: no %s diagnostic on this or the next line — delete the stale suppression", name, name),
					})
				}
			}
		}
	}
	return diags
}

// allowed reports whether a //lint:allow directive with a reason covers a
// diagnostic of the named analyzer at pos: the directive must sit on the
// diagnostic's line or the line immediately above it, in the same file.
// Matching directives are recorded as used for the suppression audit.
func (u *Unit) allowed(name string, pos token.Pos) bool {
	var file *ast.File
	for _, f := range u.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			file = f
			break
		}
	}
	if file == nil {
		return false
	}
	line := u.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := u.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			if dn, ok := parseDirective(c.Text); ok && dn == name {
				u.used[c.Pos()] = true
				return true
			}
		}
	}
	return false
}

// parseDirective parses one comment's text as a lint:allow directive,
// returning the analyzer it names. Only well-formed directives — name
// plus a non-empty reason — count; a bare //lint:allow <analyzer> does
// not suppress and is not audited (it is inert text, the same as any
// other comment).
func parseDirective(text string) (name string, ok bool) {
	body, found := strings.CutPrefix(text, "//")
	if !found {
		return "", false
	}
	body = strings.TrimSpace(body)
	rest, found := strings.CutPrefix(body, "lint:allow")
	if !found {
		return "", false
	}
	fields := strings.Fields(rest)
	// fields[0] is the analyzer name; everything after is the mandatory
	// reason.
	if len(fields) < 2 {
		return "", false
	}
	return fields[0], true
}

// ---- shared type-query helpers used by several analyzers ----

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions and
// calls of plain function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncSig returns fn's *types.Signature. (The go1.23 accessor
// types.Func.Signature is avoided so the module's language version can
// stay at its floor.)
func FuncSig(fn *types.Func) *types.Signature {
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// ReceiverNamed returns the named type of a method call's receiver (with
// pointers unwrapped), or nil when call is not a method call on a named
// type.
func ReceiverNamed(info *types.Info, call *ast.CallExpr) *types.Named {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	recv := FuncSig(fn).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether n is the named type pkgPath.name.
func IsNamed(n *types.Named, pkgPath, name string) bool {
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// RootIdent returns the leftmost identifier of an lvalue-ish expression
// (x, x.f, x[i], *x, x.f[i].g ...), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ImplementsWriter reports whether t (or *t) has a method
// Write([]byte) (int, error) — the io.Writer shape, checked structurally
// so the analyzers need no dependency on the io package's type object.
func ImplementsWriter(t types.Type) bool {
	check := func(t types.Type) bool {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Write")
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		sig := FuncSig(fn)
		if sig.Params().Len() != 1 || sig.Results().Len() != 2 {
			return false
		}
		sl, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	if check(t) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return check(types.NewPointer(t))
	}
	return false
}
