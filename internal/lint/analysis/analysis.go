// Package analysis is the frame of the qsmpilint suite: an Analyzer
// inspects one type-checked package through a Pass and reports
// position-tagged diagnostics. The module carries no third-party
// requirements (the simulator must build hermetically offline), so
// rather than importing golang.org/x/tools this package holds only what
// the suite uses: one Pass per package that the analyzers run on in turn,
// the //lint:allow bookkeeping and its audit, the table of collective
// entry points collorder hands to dependent packages, and the type
// queries several analyzers share. internal/lint/driver loads packages
// through `go list -export` and checks them.
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
	// Run inspects the package and reports diagnostics via pass.Reportf.
	Run func(*Pass)
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass is one type-checked package on its way through the suite: the
// analyzers run on it in turn (RunSuite), and it records which
// //lint:allow directives suppressed a diagnostic, for the audit.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Collectives is the package's table: the ObjectKey of every
	// package-level function or method that enters an MPI collective,
	// mapped to one collective it enters. collorder fills it, and the
	// driver publishes it to the package's dependents once the suite is
	// done with the package.
	Collectives map[string]string
	// Published returns the table of the package at path: for an import
	// of this package, direct or not, the one published before this pass
	// began; nil when that package has none.
	Published func(path string) map[string]string

	analyzer string             // the analyzer running
	diags    []Diagnostic       // the diagnostics no directive suppressed
	used     map[token.Pos]bool // the directives that suppressed one
}

// Reportf reports a formatted diagnostic at pos, unless a //lint:allow
// directive of the running analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if !p.allowed(pos) {
		p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.analyzer})
	}
}

// SuppressionName is the diagnostic label of the suppression audit run
// by RunSuite: an unused //lint:allow — one matching no diagnostic of its
// analyzer — is itself a diagnostic, so escape hatches cannot silently
// outlive the violation they excused. Audit findings are deliberately not
// suppressible; the fix is always to delete the stale directive.
const SuppressionName = "suppression"

// RunSuite runs the analyzers on the pass in turn, then audits the
// package's //lint:allow directives: a well-formed directive that
// suppressed nothing, or one naming no analyzer of the suite, is a
// SuppressionName diagnostic. It returns the diagnostics that survived
// suppression, in report order, then the audit's.
func (p *Pass) RunSuite(analyzers []*Analyzer) []Diagnostic {
	p.used = map[token.Pos]bool{}
	known := map[string]bool{}
	for _, a := range analyzers {
		p.analyzer = a.Name
		known[a.Name] = true
		a.Run(p)
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch {
				case !known[name]:
					p.diags = append(p.diags, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: SuppressionName,
						Message: fmt.Sprintf(
							"//lint:allow names unknown analyzer %q: this directive can never suppress anything", name),
					})
				case !p.used[c.Pos()]:
					p.diags = append(p.diags, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: SuppressionName,
						Message: fmt.Sprintf(
							"unused //lint:allow %s: no %s diagnostic on this or the next line — delete the stale suppression", name, name),
					})
				}
			}
		}
	}
	return p.diags
}

// allowed reports whether a //lint:allow directive with a reason covers a
// diagnostic of the running analyzer at pos: the directive must sit on
// the diagnostic's line or the line immediately above it, in the same
// file. Matching directives are recorded as used for the audit.
func (p *Pass) allowed(pos token.Pos) bool {
	var file *ast.File
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			file = f
			break
		}
	}
	if file == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := p.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			if dn, ok := parseDirective(c.Text); ok && dn == p.analyzer {
				p.used[c.Pos()] = true
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

// ObjectKey names a package-level object the same way whether the package
// was type-checked from source or imported from export data: plain
// "Name" for package-scope functions, variables, types and constants,
// "Recv.Name" for methods of a named receiver type. Objects that are not
// package-level (locals, parameters, struct fields) have no key — another
// package's view of the import could never resolve them.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := FuncSig(fn).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return n.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
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
