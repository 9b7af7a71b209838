package lint

import "go/ast"

// The statement walk ownership and collorder share. Each follows one path
// of a function body: ownership a buffer from the program to a request
// or a pool, collorder the ranks that reach a collective. A flowState is
// that path's state; walk carries it through the statements in order.
type flowState[S any] interface {
	// branch returns the state a nested block starts from. guards are
	// the expressions that choose the block: an if or for condition, a
	// switch tag and the case's expressions, a range operand. Any may
	// be nil.
	branch(guards ...ast.Expr) S
	// visit applies one statement without a nested block, or an
	// expression evaluated on the path: a condition, a tag, a case
	// expression, a range operand.
	visit(n ast.Node)
}

// walk visits list in order on s. An if's init and condition, a for's
// init and condition, a switch's init, tag and case expressions and a
// range operand are evaluated on the path. Every nested block, if arm
// and case arm starts from a branch, so that a Put or a Wait on one arm
// does not outlive the join; a for loop's post statement runs on its
// body's state, a select arm's comm statement on that arm's. Function
// literals are not entered: each analyzer chooses the bodies it walks.
func walk[S flowState[S]](s S, list []ast.Stmt) {
	for _, stmt := range list {
		switch st := stmt.(type) {
		case *ast.LabeledStmt:
			walk(s, []ast.Stmt{st.Stmt})
		case *ast.BlockStmt:
			walk(s.branch(), st.List)
		case *ast.IfStmt:
			visit(s, st.Init)
			visit(s, st.Cond)
			walk(s.branch(st.Cond), st.Body.List)
			if st.Else != nil {
				walk(s.branch(st.Cond), []ast.Stmt{st.Else})
			}
		case *ast.ForStmt:
			visit(s, st.Init)
			visit(s, st.Cond)
			body := s.branch(st.Cond)
			walk(body, st.Body.List)
			visit(body, st.Post)
		case *ast.RangeStmt:
			visit(s, st.X)
			walk(s.branch(st.X), st.Body.List)
		case *ast.SwitchStmt:
			visit(s, st.Init)
			visit(s, st.Tag)
			arms(s, st.Body, st.Tag)
		case *ast.TypeSwitchStmt:
			visit(s, st.Init)
			visit(s, st.Assign)
			arms(s, st.Body, nil)
		case *ast.SelectStmt:
			arms(s, st.Body, nil)
		default:
			visit(s, stmt)
		}
	}
}

// arms walks the clauses of a switch, type switch or select.
func arms[S flowState[S]](s S, body *ast.BlockStmt, tag ast.Expr) {
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				visit(s, e)
			}
			walk(s.branch(append([]ast.Expr{tag}, c.List...)...), c.Body)
		case *ast.CommClause:
			arm := s.branch()
			visit(arm, c.Comm)
			walk(arm, c.Body)
		}
	}
}

func visit[S flowState[S]](s S, n ast.Node) {
	if n != nil {
		s.visit(n)
	}
}
