package lint

import (
	"go/ast"
	"go/types"
	"maps"

	"qsmpi/internal/lint/analysis"
)

// PoolUse audits bufpool discipline. The pools are lock-free free lists:
// Put relinquishes the buffer to whoever Gets next, so touching a buffer
// after Put is a use-after-free of recycled storage, a second Put hands
// the same buffer to two owners, and stashing a Put buffer into longer-
// lived state retains memory another component will scribble over. The
// analysis is flow-insensitive but path-local: within each block,
// statements after an unconditional pool.Put(b) must not read or write b
// (or any alias of it) until b is reassigned. defer pool.Put(b) is exempt — it
// runs at return, after every use.
var PoolUse = &analysis.Analyzer{
	Name: "pooluse",
	Doc: "catch bufpool use-after-Put (reads and writes), double-Put and " +
		"retention of a recycled buffer",
	Run: runPoolUse,
}

func runPoolUse(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				walk(poolFlow{pass, map[types.Object]int{}, aliases{}}, body.List)
			}
			return true
		})
	}
	return nil
}

// poolFlow is pooluse's state on one path: dead maps a retired buffer to
// the line of the Put that retired it, alias maps a variable to the
// buffer it aliases.
type poolFlow struct {
	pass  *analysis.Pass
	dead  map[types.Object]int
	alias aliases
}

func (f poolFlow) clone() poolFlow {
	return poolFlow{f.pass, maps.Clone(f.dead), maps.Clone(f.alias)}
}

func (f poolFlow) step(n ast.Node) {
	switch st := n.(type) {
	case *ast.ExprStmt:
		if obj := putArg(f.pass, st.X); obj != nil {
			r := f.alias.root(obj)
			if line, isDead := f.dead[r]; isDead {
				f.pass.Reportf(st.Pos(),
					"double Put of %s (already recycled at line %d): two owners will be handed the same buffer",
					obj.Name(), line)
			} else {
				f.dead[r] = f.pass.Fset.Position(st.Pos()).Line
			}
			return
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			f.uses(rhs)
		}
		return
	}
	f.uses(n)
}

// bind revives a reassigned variable; an alias assignment (c := b,
// c := b[:n]) joins b's group.
func (f poolFlow) bind(id *ast.Ident, rhs ast.Expr) {
	obj := f.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	delete(f.dead, obj)
	delete(f.alias, obj)
	if s, isSlice := ast.Unparen(rhs).(*ast.SliceExpr); isSlice {
		rhs = s.X
	}
	if src, isIdent := ast.Unparen(rhs).(*ast.Ident); isIdent {
		if so := f.pass.TypesInfo.ObjectOf(src); so != nil && so != obj {
			f.alias[obj] = f.alias.root(so)
		}
	}
}

func (f poolFlow) write(root *ast.Ident) { f.retired(root, nil) }

// putArg returns the variable in a call pool.Put(b) on a *bufpool.Pool.
func putArg(pass *analysis.Pass, e ast.Expr) types.Object {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	if !analysis.IsNamed(analysis.ReceiverNamed(pass.TypesInfo, call), module+"/internal/bufpool", "Pool") ||
		analysis.CalleeFunc(pass.TypesInfo, call).Name() != "Put" {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

// uses reports reads of retired buffers within n.
func (f poolFlow) uses(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			f.retired(id, n)
		}
		return true
	})
}

// retired reports id if it names a retired buffer, once per retirement:
// as retained when it flows into longer-lived state within the node it
// is read in, as used otherwise, as written when within is nil.
func (f poolFlow) retired(id *ast.Ident, within ast.Node) {
	obj, ok := f.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	r := f.alias.root(obj)
	line, isDead := f.dead[r]
	if !isDead {
		return
	}
	how := "written"
	if within != nil {
		how = "used"
		if isStoreContext(within, id) {
			how = "retained"
		}
	}
	f.pass.Reportf(id.Pos(),
		"%s %s after Put (recycled at line %d): the pool may already have handed this buffer to another owner",
		how, id.Name, line)
	delete(f.dead, r)
}

// isStoreContext reports whether the identifier flows into longer-lived
// state: a composite literal, an append, or the RHS of a field/index
// store — the "retention past the handler return" shape.
func isStoreContext(within ast.Node, id *ast.Ident) bool {
	store := false
	ast.Inspect(within, func(n ast.Node) bool {
		switch p := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range p.Elts {
				if containsIdent(elt, id) {
					store = true
				}
			}
		case *ast.CallExpr:
			if fid, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && fid.Name == "append" {
				for _, a := range p.Args[1:] {
					if containsIdent(a, id) {
						store = true
					}
				}
			}
		}
		return !store
	})
	return store
}

func containsIdent(e ast.Node, id *ast.Ident) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == ast.Node(id) {
			found = true
		}
		return !found
	})
	return found
}
