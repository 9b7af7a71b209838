package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"qsmpi/internal/lint/analysis"
)

// Ownership audits the three states a buffer is in: owned by the
// program, lent while a nonblocking MPI operation is in flight over it,
// or retired to a bufpool. The rendezvous protocol lends a buffer to the
// NIC until the FIN comes back, and the pools are lock-free free lists
// whose Put relinquishes a buffer to whoever Gets next, so:
//
//   - a lent buffer must not be written — assigned through, copied into,
//     incremented — or handed to a second post until its request
//     completes, because the PML may still be draining it (eager
//     copy-out) or landing bytes in it (rendezvous), and it must not be
//     Put while the operation is in flight;
//   - a retired buffer must not be read, written, Put again or stashed
//     into longer-lived state: the pool may already have handed it to
//     another owner.
//
// The buffer states are followed along each path of every function body,
// function literals included, each walked once on its own. Aliases
// (c := b, c := b[:n], var c = b) share their original's state, a Put or
// a Wait on one arm does not outlive the join, and a deferred statement
// runs at return, after every use, so it is skipped: defer p.Put(b) is
// the blessed shape.
//
// The same walk carries the request obligation (DESIGN.md §3, §8.3), one
// per top-level declaration, shared by every path and function literal of
// it: a request returned by Isend/Irecv/Issend, or started on a persistent
// handle, must reach a completion call — Wait, Test, Waitall, Waitany,
// Testany — or the send buffer is pinned and the match queues retain the
// posting forever (the leak only surfaces when the virtual-time watchdog
// fires). A request that escapes the function (returned, stored into a
// field, slice or map, passed to a helper, sent) transfers its obligation
// to code we cannot see and goes silent — which is exactly what makes
// `reqs = append(reqs, c.Isend(...))` followed by mpi.Waitall(reqs...)
// clean. On the path, a request must not be waited twice without an
// intervening start.
var Ownership = &analysis.Analyzer{
	Name: "ownership",
	Doc: "follow each buffer through its three states (owned, lent to an " +
		"in-flight mpi request, retired to a bufpool): no write, re-post or Put " +
		"while lent, no use, Put or retention once retired; every request " +
		"completed, none waited twice",
	Run: runOwnership,
}

// mpiPkg is the import path of the MPI layer whose request discipline
// ownership enforces.
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

func runOwnership(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			ob := &obligations{map[types.Object]obligation{}, map[types.Object]bool{}, map[types.Object]bool{}, aliases{}}
			ast.Inspect(decl, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				}
				if body != nil {
					walk(ownPath{pass, aliases{}, map[types.Object]holder{}, map[types.Object]int{}, ob}, body.List)
				}
				return true
			})
			for req, o := range ob.owed {
				if !ob.discharged[req] {
					pass.Reportf(o.at,
						"%s is never completed: no Wait/Test/Waitall/Waitany reaches %s — leaked request pins its buffer and match-queue slot until the watchdog fires",
						o.what, req.Name())
				}
			}
		}
	}
}

// ownPath is ownership's state on one path. alias maps a variable to the
// variable it was bound from, buffers and requests alike; bufs maps the
// alias root of every buffer that is not the program's to its holder;
// waits maps a request posted on the path to the line of its last Wait
// (0 until one; Test does not arm the double-wait check). ob is the
// declaration's, shared by every path.
type ownPath struct {
	pass  *analysis.Pass
	alias aliases
	bufs  map[types.Object]holder
	waits map[types.Object]int
	ob    *obligations
}

// obligations holds a declaration's requests to completion, flow-
// insensitively: owed maps a request under obligation to where it last
// came under it, discharged marks every request a use anywhere in the
// declaration discharges, and what is owed and never discharged leaks.
// persistent marks the handles of SendInit and RecvInit over a buffer
// variable, which come under obligation at Start. alias is the
// declaration's alias map, which no branch clones: an alias made on one
// arm still names its request after the join.
type obligations struct {
	owed       map[types.Object]obligation
	discharged map[types.Object]bool
	persistent map[types.Object]bool
	alias      aliases
}

type obligation struct {
	at   token.Pos
	what string
}

// holder is who holds a buffer the program does not: the request of the
// post on line when req is set, the pool since the Put on line when not.
type holder struct {
	req  types.Object
	line int
	post string
}

func (o ownPath) branch(...ast.Expr) ownPath {
	return ownPath{o.pass, maps.Clone(o.alias), maps.Clone(o.bufs), maps.Clone(o.waits), o.ob}
}

// visit applies one statement or expression: its uses of requests, then,
// unless it is deferred, the completions in it, a Put, its reads, its
// writes, then its rebindings and posts. The uses and the writes include
// those inside a function literal in n: it may run at once.
func (o ownPath) visit(n ast.Node) {
	o.uses(n)
	if _, deferred := n.(*ast.DeferStmt); deferred {
		return
	}
	o.completions(n)
	if o.put(n) {
		return
	}
	o.reads(n, n)
	ast.Inspect(n, func(m ast.Node) bool {
		switch w := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range w.Lhs {
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
					o.write(lhs, nil)
				}
			}
		case *ast.IncDecStmt:
			o.write(w.X, nil)
		case *ast.CallExpr:
			if isBuiltin(o.pass.TypesInfo, w, "copy") {
				o.write(w.Args[0], w)
			}
		}
		return true
	})
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
			o.post(call, nil, "is discarded: it can never be completed — leaked request (complete it with Wait/Test, or keep the handle)")
		}
	}
	bindings(n, func(lhs, rhs ast.Expr) {
		var obj types.Object
		leak := ""
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			obj = o.pass.TypesInfo.ObjectOf(id)
			o.bind(obj, rhs)
		} else if ok {
			leak = "is assigned to _: it can never be completed — leaked request"
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			o.post(call, obj, leak)
			if buf, _ := commMethodBuf(o.pass, call, persistentInitMethods); buf != nil && obj != nil {
				o.ob.persistent[obj] = true
			}
		}
	})
}

// uses discharges every request n uses, function literals included,
// unless the use leaves the obligation where it is: the receiver of Start,
// an assignment's target or its one-to-one source, an operand or a
// condition. Start on a persistent handle puts it under obligation.
func (o ownPath) uses(n ast.Node) {
	var stack []ast.Node
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, m)
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := o.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		r := o.ob.alias.root(obj)
		switch discharges, start := requestUse(stack); {
		case start != nil && o.ob.persistent[r]:
			o.ob.owed[r] = obligation{start.Pos(), "persistent request started here"}
		case discharges:
			o.ob.discharged[r] = true
		}
		return true
	})
}

// requestUse reads what the identifier on top of stack does with the
// request it names: discharges its obligation, or calls Start on it (the
// call is returned).
func requestUse(stack []ast.Node) (discharges bool, start *ast.CallExpr) {
	id, i := stack[len(stack)-1], len(stack)-2
	node := id
	for ; i >= 0; i-- {
		if _, paren := stack[i].(*ast.ParenExpr); !paren {
			break
		}
		node = stack[i]
	}
	if i < 0 {
		return false, nil // evaluated alone: a condition, a tag, a case
	}
	switch p := stack[i].(type) {
	case *ast.SelectorExpr:
		if p.X != node {
			return false, nil // x.r: a field named like it
		}
		if i > 0 && p.Sel.Name == "Start" {
			if call, ok := stack[i-1].(*ast.CallExpr); ok && call.Fun == ast.Node(p) {
				return false, call
			}
		}
		return true, nil
	case *ast.CallExpr:
		return p.Fun != node, nil
	case *ast.AssignStmt:
		for j, lhs := range p.Lhs {
			if ast.Unparen(lhs) == id {
				return false, nil
			}
			if _, plain := ast.Unparen(lhs).(*ast.Ident); plain && len(p.Lhs) == len(p.Rhs) && ast.Unparen(p.Rhs[j]) == id {
				return false, nil // an alias: the obligation moves with it
			}
		}
		return true, nil
	case *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt,
		*ast.CaseClause, *ast.ExprStmt, *ast.BlockStmt:
		return false, nil
	}
	return true, nil // returned, stored, sent, captured, passed on
}

// completions applies every Wait, Test and Waitall in n outside function
// literals, conditions included.
func (o ownPath) completions(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, name := reqMethodCall(o.pass, call); obj != nil && (name == "Wait" || name == "Test") {
			o.complete(obj, name == "Wait", call.Pos())
		}
		if isWaitallCall(o.pass, call) {
			for _, a := range call.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok {
					if obj := o.pass.TypesInfo.ObjectOf(id); obj != nil {
						o.complete(obj, true, call.Pos())
					}
				}
			}
		}
		return true
	})
}

func (o ownPath) complete(obj types.Object, isWait bool, at token.Pos) {
	r := o.alias.root(obj)
	if last, posted := o.waits[r]; posted && isWait {
		if last != 0 {
			o.pass.Reportf(at,
				"%s waited twice (previous wait at line %d) without an intervening start: the second wait can only observe a stale completion",
				obj.Name(), last)
		}
		o.waits[r] = o.pass.Fset.Position(at).Line
	}
	for b, h := range o.bufs {
		if h.req == r {
			delete(o.bufs, b)
		}
	}
}

// put retires the buffer of a statement pool.Put(b) on a *bufpool.Pool,
// reporting whether n is one.
func (o ownPath) put(n ast.Node) bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 ||
		!analysis.IsNamed(analysis.ReceiverNamed(o.pass.TypesInfo, call), module+"/internal/bufpool", "Pool") ||
		analysis.CalleeFunc(o.pass.TypesInfo, call).Name() != "Put" {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || o.pass.TypesInfo.ObjectOf(id) == nil {
		return false
	}
	r := o.alias.root(o.pass.TypesInfo.ObjectOf(id))
	line := o.pass.Fset.Position(es.Pos()).Line
	switch h, held := o.bufs[r]; {
	case held && h.req == nil:
		o.pass.Reportf(es.Pos(),
			"double Put of %s (already recycled at line %d): two owners will be handed the same buffer",
			id.Name, h.line)
		return true
	case held:
		o.pass.Reportf(es.Pos(),
			"Put of %s while the %s from line %d is in flight: the pool may hand the NIC's bytes to another owner — complete the request first",
			id.Name, h.post, h.line)
	}
	o.bufs[r] = holder{line: line}
	return true
}

// reads reports reads of retired buffers within n. Write targets are not
// reads: an assignment contributes its right-hand side, copy its source.
func (o ownPath) reads(n, within ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch r := m.(type) {
		case *ast.AssignStmt:
			for _, rhs := range r.Rhs {
				o.reads(rhs, rhs)
			}
			return false
		case *ast.IncDecStmt:
			return false
		case *ast.CallExpr:
			if isBuiltin(o.pass.TypesInfo, r, "copy") {
				o.reads(r.Args[1], within)
				return false
			}
		case *ast.Ident:
			o.retiredRead(r, within)
		}
		return true
	})
}

// retiredRead reports id if it names a retired buffer, once per
// retirement: as retained when it flows into longer-lived state within
// the node it is read in, as used otherwise.
func (o ownPath) retiredRead(id *ast.Ident, within ast.Node) {
	obj, ok := o.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	r := o.alias.root(obj)
	if h, held := o.bufs[r]; held && h.req == nil {
		how := "used"
		if isStoreContext(within, id) {
			how = "retained"
		}
		o.retired(how, id, h.line)
		delete(o.bufs, r)
	}
}

func (o ownPath) retired(how string, id *ast.Ident, line int) {
	o.pass.Reportf(id.Pos(),
		"%s %s after Put (recycled at line %d): the pool may already have handed this buffer to another owner",
		how, id.Name, line)
}

// write reports a store through target's root variable while its buffer
// is not the program's, once per posting or retirement. copyCall is the
// builtin copy that writes target, nil for any other store.
func (o ownPath) write(target ast.Expr, copyCall *ast.CallExpr) {
	root := analysis.RootIdent(target)
	if root == nil {
		return
	}
	r := o.alias.root(o.pass.TypesInfo.ObjectOf(root))
	h, held := o.bufs[r]
	switch {
	case !held:
		return
	case h.req == nil:
		o.retired("written", root, h.line)
	default:
		at, how, why := root.Pos(), "", "the PML may still be draining or filling these bytes — "
		if copyCall != nil {
			at, how, why = copyCall.Pos(), " (copy)", ""
		}
		o.pass.Reportf(at, "buffer %s written%s while the %s from line %d is in flight: %scomplete the request first",
			root.Name, how, h.post, h.line, why)
	}
	delete(o.bufs, r)
}

// bind rebinds obj: it no longer names what it held. An alias binding
// (c := b, c := b[:n]) joins b's group.
func (o ownPath) bind(obj types.Object, rhs ast.Expr) {
	if obj == nil {
		return
	}
	delete(o.bufs, obj)
	delete(o.alias, obj)
	delete(o.ob.alias, obj)
	if s, isSlice := ast.Unparen(rhs).(*ast.SliceExpr); isSlice {
		rhs = s.X
	}
	if src, isIdent := ast.Unparen(rhs).(*ast.Ident); isIdent {
		if so := o.pass.TypesInfo.ObjectOf(src); so != nil && so != obj {
			o.alias[obj] = o.alias.root(so)
			o.ob.alias[obj] = o.ob.alias.root(so)
		}
	}
}

// post lends call's buffer to req and puts req under obligation (req is
// nil when the request is not bound to a plain variable), flags a buffer
// posted twice, and reports leak, the way a request no variable holds is
// leaked, if there is one.
func (o ownPath) post(call *ast.CallExpr, req types.Object, leak string) {
	buf, name := commMethodBuf(o.pass, call, postMethods)
	if name == "" {
		return
	}
	if leak != "" {
		o.pass.Reportf(call.Pos(), "request returned by %s %s", name, leak)
	}
	line := o.pass.Fset.Position(call.Pos()).Line
	if buf != nil {
		b := o.alias.root(buf)
		if h, lent := o.bufs[b]; lent && h.req != nil && h.req != o.alias.root(req) {
			o.pass.Reportf(call.Pos(),
				"buffer %s re-posted while the %s from line %d is still in flight: two operations own the same bytes",
				buf.Name(), h.post, h.line)
		}
		if req != nil {
			o.bufs[b] = holder{o.alias.root(req), line, name}
		}
	}
	if req != nil {
		o.waits[o.alias.root(req)] = 0
		o.ob.owed[o.ob.alias.root(req)] = obligation{call.Pos(), "request posted by " + name}
	}
}

// bindings calls bind for every target n binds — each left-hand side of
// an assignment, each name of a var declaration — with its right-hand
// side when the binding is one-to-one, else nil.
func bindings(n ast.Node, bind func(lhs, rhs ast.Expr)) {
	var lhs, rhs []ast.Expr
	switch st := n.(type) {
	case *ast.AssignStmt:
		lhs, rhs = st.Lhs, st.Rhs
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				bindings(spec, bind)
			}
		}
	case *ast.ValueSpec:
		for _, id := range st.Names {
			lhs = append(lhs, id)
		}
		rhs = st.Values
	}
	for i, l := range lhs {
		var r ast.Expr
		if len(lhs) == len(rhs) {
			r = rhs[i]
		}
		bind(l, r)
	}
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

// isBuiltin reports whether call calls the builtin name, not a shadow.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// aliases maps a variable to the variable it was bound from (c := b,
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
