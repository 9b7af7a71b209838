package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"qsmpi/internal/lint/analysis"
)

// ReqLife audits the MPI request lifecycle. The protocol contract behind
// every nonblocking operation (DESIGN.md §3, §8.3) has three clauses:
// a request returned by Isend/Irecv/Issend (or started on a persistent
// handle) must reach a completion call — Wait, Test, Waitall, Waitany,
// Testany — on every path, or the send buffer is pinned and the match
// queues retain the posting forever (the leak only surfaces when the
// virtual-time watchdog fires, long after the culprit returned); a
// request must not be waited twice without an intervening start; and the
// buffer handed to the post must not be written — or handed to a second
// post — until the operation completes, because the PML may still be
// draining it (eager copy-out) or landing bytes in it (rendezvous).
//
// The analysis is function-local and conservative in the same way
// pooluse is: a request that escapes the function (returned, stored into
// a field, slice or map, passed to a helper) transfers its obligation to
// code we cannot see and goes silent — which is exactly what makes
// `reqs = append(reqs, c.Isend(...))` followed by mpi.Waitall(reqs...)
// clean. `defer r.Wait()` counts as completion (it runs on every path),
// and aliases (`r2 := r`) share their original's fate.
var ReqLife = &analysis.Analyzer{
	Name: "reqlife",
	Doc: "require every mpi request to reach Wait/Test/Waitall on all paths, " +
		"forbid double waits without an intervening start, and forbid writing " +
		"or re-posting a buffer while its request is in flight",
	Run: runReqLife,
}

// mpiPkg is the import path of the MPI layer whose request discipline
// reqlife enforces.
const mpiPkg = module + "/internal/mpi"

// postMethods are the *mpi.Comm methods that post a nonblocking
// operation and return a *mpi.Request; persistentInitMethods create
// persistent handles (PersistentSend / PersistentRecv), whose operation
// is posted by Start, not by the init. The buffer is argument 2 of each.
var (
	postMethods           = map[string]bool{"Isend": true, "Irecv": true, "Issend": true}
	persistentInitMethods = map[string]bool{"SendInit": true, "RecvInit": true}
)

// waitFuncs are the package-level completion functions; both the mpi
// package and the qsmpi facade re-export count.
var waitFuncs = map[string]map[string]bool{
	mpiPkg: {"Waitall": true, "Waitany": true, "Testany": true},
	module: {"Waitall": true, "Waitany": true},
}

func runReqLife(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkReqFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// commMethodBuf returns the name of the method call makes when it is one
// of methods on an *mpi.Comm (a post or a persistent init), else "". buf
// is the buffer argument's root variable, nil when the buffer is not a
// trackable variable (make([]byte, n) inline).
func commMethodBuf(pass *analysis.Pass, call *ast.CallExpr, methods map[string]bool) (buf types.Object, name string) {
	recv := analysis.ReceiverNamed(pass.TypesInfo, call)
	if !analysis.IsNamed(recv, mpiPkg, "Comm") || len(call.Args) < 3 {
		return nil, ""
	}
	if name = analysis.CalleeFunc(pass.TypesInfo, call).Name(); !methods[name] {
		return nil, ""
	}
	if root := analysis.RootIdent(call.Args[2]); root != nil {
		if obj, isVar := pass.TypesInfo.ObjectOf(root).(*types.Var); isVar {
			return obj, name
		}
	}
	return nil, name
}

// isWaitallCall reports whether call is one of the package-level
// completion functions (mpi.Waitall and friends, or the qsmpi facade).
func isWaitallCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || analysis.FuncSig(fn).Recv() != nil {
		return false
	}
	names := waitFuncs[fn.Pkg().Path()]
	return names != nil && names[fn.Name()]
}

// reqMethodCall matches r.<name>() where r's root resolves to an object:
// the completion (Wait/Test) and persistent (Start) shapes.
func reqMethodCall(pass *analysis.Pass, call *ast.CallExpr) (obj types.Object, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	recv := analysis.ReceiverNamed(pass.TypesInfo, call)
	switch {
	case analysis.IsNamed(recv, mpiPkg, "Request"),
		analysis.IsNamed(recv, mpiPkg, "PersistentSend"),
		analysis.IsNamed(recv, mpiPkg, "PersistentRecv"):
	default:
		return nil, ""
	}
	root := analysis.RootIdent(sel.X)
	if root == nil {
		return nil, ""
	}
	return pass.TypesInfo.ObjectOf(root), sel.Sel.Name
}

// reqTracked is one request-producing site under obligation.
type reqTracked struct {
	pos  token.Pos
	what string // the site, for the leak diagnostic
}

// checkReqFunc runs all three reqlife checks over one function body.
func checkReqFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	tracked := map[types.Object]*reqTracked{} // request vars under obligation
	persistent := map[types.Object]bool{}     // persistent handles over a buffer variable

	// Pass 1: collect obligations. A post whose result is consumed by a
	// larger expression (chained .Wait(), append, return, field store,
	// call argument) escapes at birth and is never tracked; a post
	// discarded outright is an immediate leak.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var target *ast.Ident
		if as, ok := parents[call].(*ast.AssignStmt); ok {
			target = assignee(as, call)
		}
		if _, post := commMethodBuf(pass, call, postMethods); post != "" {
			if _, discarded := parents[call].(*ast.ExprStmt); discarded {
				pass.Reportf(call.Pos(),
					"request returned by %s is discarded: it can never be completed — leaked request (complete it with Wait/Test, or keep the handle)",
					post)
			} else if target != nil && target.Name == "_" {
				pass.Reportf(call.Pos(),
					"request returned by %s is assigned to _: it can never be completed — leaked request", post)
			} else if target != nil {
				tracked[pass.TypesInfo.ObjectOf(target)] = &reqTracked{call.Pos(), "request posted by " + post}
			}
		}
		if buf, _ := commMethodBuf(pass, call, persistentInitMethods); buf != nil && target != nil && target.Name != "_" {
			persistent[pass.TypesInfo.ObjectOf(target)] = true
		}
		return true
	})

	// Persistent handles come under obligation when Start is called.
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, name := reqMethodCall(pass, call); name == "Start" && persistent[obj] && tracked[obj] == nil {
				tracked[obj] = &reqTracked{call.Pos(), "persistent request started here"}
			}
		}
		return true
	})

	if len(tracked) == 0 {
		return
	}

	// Pass 2: classify every use of a tracked variable, flow-insensitively:
	// completed somewhere (any path suffices to discharge the leak check —
	// conservative), or escaped (obligation transferred, go silent).
	completed := map[types.Object]bool{}
	escaped := map[types.Object]bool{}
	alias := aliases{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		r := alias.root(obj)
		if _, isTracked := tracked[r]; !isTracked {
			// Not yet aliased to a tracked request: an alias assignment
			// `r2 := r` is classified below when r (the RHS) is visited.
			if _, isTracked := tracked[obj]; !isTracked {
				return true
			}
			r = obj
		}
		use, lhs := classifyReqUse(pass, parents, id)
		switch use {
		case useCompleted:
			completed[r] = true
		case useEscaped:
			escaped[r] = true
		case useAliased:
			if lo := pass.TypesInfo.ObjectOf(lhs); lo != nil && lo != r {
				alias[lo] = r
			}
		}
		return true
	})
	for obj, t := range tracked {
		if !completed[obj] && !escaped[obj] {
			pass.Reportf(t.pos,
				"%s is never completed: no Wait/Test/Waitall/Waitany reaches %s — leaked request pins its buffer and match-queue slot until the watchdog fires",
				t.what, obj.Name())
		}
	}

	// Pass 3: the ordered ownership walk for double waits and in-flight
	// buffer discipline.
	walk(reqPath{pass, alias, map[types.Object]int{}, map[types.Object]bufFlow{}}, body.List)
}

// reqPath is reqlife's state on one path. waits maps a request posted on
// it to the line of its last Wait (0 until one; Test does not arm the
// double-wait check); bufs marks the buffers with an operation in
// flight. The request aliases are the whole function's.
type reqPath struct {
	pass  *analysis.Pass
	alias aliases
	waits map[types.Object]int
	bufs  map[types.Object]bufFlow
}

// bufFlow marks a buffer with an in-flight operation over it.
type bufFlow struct {
	req      types.Object
	postLine int
	post     string
}

func (p reqPath) clone() reqPath {
	return reqPath{p.pass, p.alias, maps.Clone(p.waits), maps.Clone(p.bufs)}
}

// step applies every completion in n, conditions included, then the posts
// a statement makes and the copy it writes.
func (p reqPath) step(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false // deferred execution: not part of this flow
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, name := reqMethodCall(p.pass, call); obj != nil && (name == "Wait" || name == "Test") {
			p.complete(obj, name == "Wait", call.Pos())
		}
		if isWaitallCall(p.pass, call) {
			for _, a := range call.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok {
					if obj := p.pass.TypesInfo.ObjectOf(id); obj != nil {
						p.complete(obj, true, call.Pos())
					}
				}
			}
		}
		return true
	})
	switch st := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				var req types.Object
				if id := assignee(st, rhs); id != nil && id.Name != "_" {
					req = p.pass.TypesInfo.ObjectOf(id)
				}
				p.post(call, req)
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			p.post(call, nil)
			p.copyInto(call)
		}
	}
}

func (p reqPath) complete(obj types.Object, isWait bool, at token.Pos) {
	r := p.alias.root(obj)
	if last, posted := p.waits[r]; posted && isWait {
		if last != 0 {
			p.pass.Reportf(at,
				"%s waited twice (previous wait at line %d) without an intervening start: the second wait can only observe a stale completion",
				obj.Name(), last)
		}
		p.waits[r] = p.pass.Fset.Position(at).Line
	}
	for b, bf := range p.bufs {
		if bf.req == r {
			delete(p.bufs, b)
		}
	}
}

// post puts call's buffer in flight under req (nil when the request is not
// bound to a plain variable), and flags a buffer posted twice.
func (p reqPath) post(call *ast.CallExpr, req types.Object) {
	buf, name := commMethodBuf(p.pass, call, postMethods)
	if name == "" {
		return
	}
	line := p.pass.Fset.Position(call.Pos()).Line
	if buf != nil {
		if bf, inflight := p.bufs[buf]; inflight && p.alias.root(bf.req) != p.alias.root(req) {
			p.pass.Reportf(call.Pos(),
				"buffer %s re-posted while the %s from line %d is still in flight: two operations own the same bytes",
				buf.Name(), bf.post, bf.postLine)
		}
		if req != nil {
			p.bufs[buf] = bufFlow{req: p.alias.root(req), postLine: line, post: name}
		}
	}
	if req != nil {
		p.waits[p.alias.root(req)] = 0
	}
}

// bind: a plain rebinding of the variable leaves the in-flight bytes
// untouched, but loses track of them — go conservative.
func (p reqPath) bind(id *ast.Ident, _ ast.Expr) {
	delete(p.bufs, p.pass.TypesInfo.ObjectOf(id))
}

func (p reqPath) write(root *ast.Ident) {
	p.written(root, root.Pos(), "", "the PML may still be draining or filling these bytes — ")
}

// written reports a write through root while its buffer is in flight,
// once per posting.
func (p reqPath) written(root *ast.Ident, at token.Pos, how, why string) {
	obj := p.pass.TypesInfo.ObjectOf(root)
	if bf, inflight := p.bufs[obj]; inflight {
		p.pass.Reportf(at, "buffer %s written%s while the %s from line %d is in flight: %scomplete the request first",
			root.Name, how, bf.post, bf.postLine, why)
		delete(p.bufs, obj)
	}
}

// copyInto flags builtin copy into an in-flight buffer — the one
// expression-statement write shape assignments do not cover.
func (p reqPath) copyInto(call *ast.CallExpr) {
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fid.Name != "copy" || len(call.Args) != 2 {
		return
	}
	if _, isBuiltin := p.pass.TypesInfo.Uses[fid].(*types.Builtin); !isBuiltin {
		return // shadowed: not the builtin
	}
	if root := analysis.RootIdent(call.Args[0]); root != nil {
		p.written(root, call.Pos(), " (copy)", "")
	}
}

// reqUse classifies one appearance of a tracked request variable.
type reqUse int

const (
	useNeutral reqUse = iota
	useCompleted
	useEscaped
	useAliased
)

// classifyReqUse walks outward from an identifier to decide what the
// enclosing expression does with the request: completes it, aliases it,
// lets it escape, or merely looks at it. An alias comes with the
// variable it makes.
func classifyReqUse(pass *analysis.Pass, parents map[ast.Node]ast.Node, id *ast.Ident) (reqUse, *ast.Ident) {
	var node ast.Node = id
	for {
		parent := parents[node]
		if parent == nil {
			return useNeutral, nil
		}
		switch p := parent.(type) {
		case *ast.ParenExpr:
			node = parent
			continue
		case *ast.SelectorExpr:
			if p.X != node {
				return useNeutral, nil // x.r — selecting a field named like it
			}
			if gp, ok := parents[p].(*ast.CallExpr); ok && gp.Fun == ast.Node(p) {
				switch p.Sel.Name {
				case "Wait", "Test":
					return useCompleted, nil
				case "Start":
					return useNeutral, nil // persistents: handled as a new post
				}
				return useEscaped, nil
			}
			return useEscaped, nil // method value or field access: unknown
		case *ast.CallExpr:
			if p.Fun == node {
				return useNeutral, nil // calling the variable? not a request then
			}
			if isWaitallCall(pass, p) {
				return useCompleted, nil
			}
			return useEscaped, nil // any other callee owns the request now
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if ast.Unparen(lhs) == node || lhs == node {
					return useNeutral, nil // reassignment target
				}
			}
			// RHS: a plain x := r alias joins r's group; anything else
			// (field, index, map stores) escapes.
			if lhs := assignee(p, node); lhs != nil {
				return useAliased, lhs
			}
			return useEscaped, nil
		case *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt,
			*ast.CaseClause, *ast.ExprStmt, *ast.BlockStmt:
			return useNeutral, nil
		default:
			// returned, stored, sent, captured by go or defer
			return useEscaped, nil
		}
	}
}
