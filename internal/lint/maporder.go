package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"qsmpi/internal/lint/analysis"
)

// MapOrder flags `range` over a map whose loop body reaches an output
// sink — the exact bug class that would silently break the replication
// report's `-j 1 == -j N` byte-identity. Two shapes are diagnosed:
//
//  1. the body writes directly to a sink (fmt printing, an io.Writer,
//     trace.Recorder.Record, an obs.EmitFn), so the output is emitted in
//     map order;
//  2. the body accumulates into a slice declared outside the loop and the
//     enclosing function never sorts that slice, so map order escapes
//     through it.
//
// The clean patterns stay silent: collect keys (or values) into a slice,
// sort it, then range the slice; or accumulate into a keyed map, which is
// order-insensitive.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose order can reach rendered output; " +
		"deterministic output requires collect-then-sort",
	Run: runMapOrder,
}

func runMapOrder(pass *analysis.Pass) {
	for _, f := range pass.Files {
		// Every function body in the file, for locating the scope a map
		// range's accumulator must be sorted in.
		var funcs []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					funcs = append(funcs, fn.Body)
				}
			case *ast.FuncLit:
				funcs = append(funcs, fn.Body)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if isMapRange(pass.TypesInfo, rs.X) {
				checkMapRange(pass, rs, innermost(funcs, rs))
			}
			return true
		})
	}
}

// isMapRange reports whether ranging over x visits a map in its order:
// x is a map, or a call of maps.Keys, maps.Values or maps.All.
func isMapRange(info *types.Info, x ast.Expr) bool {
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "maps" {
			switch fn.Name() {
			case "Keys", "Values", "All":
				return true
			}
		}
	}
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// innermost returns the smallest function body enclosing n.
func innermost(funcs []*ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range funcs {
		if b.Pos() <= n.Pos() && n.End() <= b.End() {
			if best == nil || b.Pos() > best.Pos() {
				best = b
			}
		}
	}
	return best
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt) {
	// Shape 1: a direct sink call anywhere in the body.
	var sink string
	var sinkPos ast.Node
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if s := sinkName(pass.TypesInfo, call); s != "" {
			sink, sinkPos = s, call
			return false
		}
		return true
	})
	if sink != "" {
		pass.Reportf(rs.Pos(),
			"map iteration writes to %s (line %d): output follows nondeterministic map order — collect keys, sort, then emit",
			sink, pass.Fset.Position(sinkPos.Pos()).Line)
		return
	}

	// Shape 2: accumulation into an outer slice that is never sorted in
	// the enclosing function.
	if enclosing == nil {
		return
	}
	for _, target := range outerAppendTargets(pass, rs) {
		s := types.ExprString(target)
		if !sortedIn(pass, enclosing, s) {
			pass.Reportf(rs.Pos(),
				"map iteration accumulates into %s, which is never sorted in this function: map order escapes into whatever consumes it",
				s)
			return // one diagnostic per range statement
		}
	}
}

// sinkName classifies a call as an output sink, returning a description
// or "".
func sinkName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" && analysis.FuncSig(fn).Recv() == nil {
			switch fn.Name() {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return "fmt." + fn.Name()
			}
		}
		if fn.Pkg().Path() == "io" && fn.Name() == "WriteString" && analysis.FuncSig(fn).Recv() == nil {
			return "io.WriteString"
		}
	}
	if recv := analysis.ReceiverNamed(info, call); recv != nil {
		fn := analysis.CalleeFunc(info, call)
		if analysis.IsNamed(recv, module+"/internal/trace", "Recorder") && fn.Name() == "Record" {
			return "trace.Recorder.Record"
		}
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			if analysis.ImplementsWriter(recv) || analysis.ImplementsWriter(types.NewPointer(recv)) {
				return types.ExprString(call.Fun)
			}
		}
	}
	// A call of a value whose type is obs.EmitFn: metric emission. Under
	// duplicate-key summing, float accumulation order is visible in the
	// last ulp, so even the keyed registry is order-sensitive here.
	if t := info.TypeOf(call.Fun); t != nil {
		if n, ok := t.(*types.Named); ok && analysis.IsNamed(n, module+"/internal/obs", "EmitFn") {
			return "obs.EmitFn"
		}
	}
	return ""
}

// outerAppendTargets returns the distinct lvalues appended to inside the
// range body that are declared outside it. Keyed stores (m[k] = ...) are
// excluded: a map accumulator is order-insensitive.
func outerAppendTargets(pass *analysis.Pass, rs *ast.RangeStmt) []ast.Expr {
	var out []ast.Expr
	seen := map[string]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(pass.TypesInfo, call, "append") || i >= len(as.Lhs) {
				continue
			}
			target := as.Lhs[i]
			if _, isIndex := ast.Unparen(target).(*ast.IndexExpr); isIndex {
				continue
			}
			root := analysis.RootIdent(target)
			if root == nil {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(root)
			if obj == nil || (rs.Pos() <= obj.Pos() && obj.Pos() <= rs.End()) {
				continue // declared inside the loop: per-iteration state
			}
			if s := types.ExprString(target); !seen[s] {
				seen[s] = true
				out = append(out, target)
			}
		}
		return true
	})
	return out
}

// sortedIn reports whether the function body contains a call that sorts
// the expression (by printed form): a sort./slices. package call taking
// it as an argument, a .Sort() method on it, or any call to a function
// whose name mentions sorting with it as an argument.
func sortedIn(pass *analysis.Pass, body *ast.BlockStmt, exprStr string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		sortingCallee := false
		if fn.Pkg() != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") {
			sortingCallee = true
		}
		if strings.Contains(strings.ToLower(fn.Name()), "sort") {
			sortingCallee = true
		}
		if !sortingCallee {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && types.ExprString(sel.X) == exprStr {
			found = true // e.g. x.Sort()
			return false
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(sub ast.Node) bool {
				if e, ok := sub.(ast.Expr); ok && types.ExprString(e) == exprStr {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
