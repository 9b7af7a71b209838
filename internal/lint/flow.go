package lint

import (
	"go/ast"
	"go/types"

	"qsmpi/internal/lint/analysis"
)

// The ownership walk pooluse and reqlife share. Both follow a buffer
// along one path of a function body: pooluse from the Put that retires
// it, reqlife from the post that puts it in flight. A flowState is that
// path's state; walk carries it through the statements in order.
type flowState[S any] interface {
	// clone copies the state for a nested block, so that a Put or a Wait
	// on one arm does not outlive the join.
	clone() S
	// step applies one statement without a nested block, or an
	// expression evaluated on the path: a condition, a tag, a range
	// operand.
	step(n ast.Node)
	// bind rebinds the variable id on the left of an assignment. rhs is
	// its right-hand side when the assignment is one-to-one, else nil.
	bind(id *ast.Ident, rhs ast.Expr)
	// write is a store through root: b[i] = x, b[i] += x, *p = x.
	write(root *ast.Ident)
}

// walk visits list in order on s. A deferred statement runs at return,
// after every use on the path, and is skipped. Function literals are not
// entered: each analyzer chooses the bodies it walks.
func walk[S flowState[S]](s S, list []ast.Stmt) {
	for _, stmt := range list {
		switch st := stmt.(type) {
		case *ast.DeferStmt:
		case *ast.LabeledStmt:
			walk(s, []ast.Stmt{st.Stmt})
		case *ast.BlockStmt:
			walk(s.clone(), st.List)
		case *ast.IfStmt:
			visit(s, st.Init)
			visit(s, st.Cond)
			walk(s.clone(), st.Body.List)
			if st.Else != nil {
				walk(s.clone(), []ast.Stmt{st.Else})
			}
		case *ast.ForStmt:
			visit(s, st.Init)
			visit(s, st.Cond)
			walk(s.clone(), st.Body.List)
		case *ast.RangeStmt:
			visit(s, st.X)
			walk(s.clone(), st.Body.List)
		case *ast.SwitchStmt:
			visit(s, st.Init)
			visit(s, st.Tag)
			walk(s, st.Body.List)
		case *ast.TypeSwitchStmt:
			visit(s, st.Init)
			visit(s, st.Assign)
			walk(s, st.Body.List)
		case *ast.SelectStmt:
			walk(s, st.Body.List)
		case *ast.CaseClause:
			walk(s.clone(), st.Body)
		case *ast.CommClause:
			walk(s.clone(), st.Body)
		default:
			visit(s, stmt)
		}
	}
}

// visit applies one statement or expression to s. The targets of an
// assignment are seen after its right-hand side: a plain identifier is
// rebound, any other target is a write through its root variable.
func visit[S flowState[S]](s S, n ast.Node) {
	if n == nil {
		return
	}
	s.step(n)
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	for i, lhs := range as.Lhs {
		if id, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
			if root := analysis.RootIdent(lhs); root != nil {
				s.write(root)
			}
		} else if id.Name != "_" {
			var rhs ast.Expr
			if len(as.Lhs) == len(as.Rhs) {
				rhs = as.Rhs[i]
			}
			s.bind(id, rhs)
		}
	}
}

// assignee returns the plain identifier st assigns rhs to, or nil when st
// is not one-to-one or the target is a field, an index or a dereference.
func assignee(st *ast.AssignStmt, rhs ast.Node) *ast.Ident {
	if len(st.Lhs) != len(st.Rhs) {
		return nil
	}
	for i, r := range st.Rhs {
		if r == rhs || ast.Unparen(r) == rhs {
			id, _ := ast.Unparen(st.Lhs[i]).(*ast.Ident)
			return id
		}
	}
	return nil
}

// aliases maps a variable to the variable it was assigned from (c := b,
// c := b[:n], r2 := r), so every member of a group answers to one root.
type aliases map[types.Object]types.Object

// root follows o's chain to the variable that owns it. The chain is
// bounded: r = r2 after r2 := r makes a cycle.
func (a aliases) root(o types.Object) types.Object {
	for i := 0; i < 8; i++ {
		r, ok := a[o]
		if !ok {
			break
		}
		o = r
	}
	return o
}
