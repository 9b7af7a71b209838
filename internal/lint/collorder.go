package lint

import (
	"go/ast"
	"go/types"

	"qsmpi/internal/lint/analysis"
)

// CollOrder flags collective operations that are only reachable on a
// subset of ranks. MPI's collective contract (DESIGN.md §4) is that every
// member of a communicator enters the same collectives in the same order;
// a Barrier inside `if rank == 0 { ... }` deadlocks every other rank (or,
// with NBC schedules, silently mismatches correlators and corrupts the
// reduction). The bug class is insidious because the guard and the
// collective are often separated by helper calls — so collorder is
// interprocedural: each package publishes a table of its package-level
// functions and methods that (transitively) enter a collective, and call
// sites consult the table of the callee's package. The
// root-rank idiom — `if rank == root { fill payload }` followed by the
// collective *outside* the guard — is clean by construction: only
// collectives lexically inside a rank-dependent region are flagged.
//
// Rank-dependence is a local taint: a condition is rank-dependent when it
// mentions a Rank() call (on mpi.Comm, mpi.World or the qsmpi.World
// facade) or a variable derived from one. The mpi package itself is
// exempt — it implements the collectives over point-to-point, so its
// internals are rank-divergent by design.
var CollOrder = &analysis.Analyzer{
	Name: "collorder",
	Doc: "flag collective operations reachable only under rank-dependent " +
		"branches, where ranks would enter collectives in divergent order",
	Run: runCollOrder,
}

// collectiveMethods are the *mpi.Comm (and aliased qsmpi.Comm) entry
// points that every rank of the communicator must reach together. Dup,
// Split and WinCreate are communicator-management calls but collective
// all the same.
var collectiveMethods = map[string]bool{
	"Barrier": true, "Bcast": true, "Reduce": true, "Allreduce": true,
	"Gather": true, "Allgather": true, "Scatter": true, "Alltoall": true,
	"Gatherv": true, "Scatterv": true, "Allgatherv": true, "Alltoallv": true,
	"ReduceScatter": true, "Scan": true,
	"Ibarrier": true, "Ibcast": true, "Iallreduce": true,
	"Dup": true, "Split": true, "WinCreate": true,
}

// hwCollMethods are the NIC-offload entry points on the HWColl interface.
var hwCollMethods = map[string]bool{
	"HWBcast": true, "HWBarrier": true, "HWAllreduce": true,
}

// isDirectCollective reports whether call enters a collective directly,
// returning the collective's name.
func isDirectCollective(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	recv := analysis.ReceiverNamed(pass.TypesInfo, call)
	if recv == nil {
		return "", false
	}
	if analysis.IsNamed(recv, mpiPkg, "Comm") && collectiveMethods[fn.Name()] {
		return fn.Name(), true
	}
	if analysis.IsNamed(recv, mpiPkg, "HWColl") && hwCollMethods[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// isRankCall reports whether call is <comm or world>.Rank().
func isRankCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Rank" {
		return false
	}
	recv := analysis.ReceiverNamed(pass.TypesInfo, call)
	return analysis.IsNamed(recv, mpiPkg, "Comm") ||
		analysis.IsNamed(recv, mpiPkg, "World") ||
		analysis.IsNamed(recv, module, "World")
}

func runCollOrder(pass *analysis.Pass) {
	if pass.Pkg.Path() == mpiPkg {
		// The collective implementations themselves: rank-divergent
		// Send/Recv trees are the whole point down here.
		return
	}

	// Step 1: find which function declarations of the package enter a
	// collective, running an intra-package fixpoint so chains of local
	// helpers converge. The declarations are taken in source order, so the
	// collective a helper is reported to enter does not depend on map
	// order. Imported callees are resolved through their package's table.
	type decl struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	var decls []decl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, decl{fn, fd})
			}
		}
	}

	// calleeCollective resolves whether a call enters a collective, via
	// direct match, the local fixpoint set, or the callee package's table.
	local := map[*types.Func]string{}
	calleeCollective := func(call *ast.CallExpr) (string, bool) {
		if name, ok := isDirectCollective(pass, call); ok {
			return name, true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return "", false
		}
		if name, ok := local[fn]; ok {
			return name, true
		}
		if key, ok := analysis.ObjectKey(fn); ok && fn.Pkg() != pass.Pkg {
			name, ok := pass.Published(fn.Pkg().Path())[key]
			return name, ok
		}
		return "", false
	}

	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, done := local[d.fn]; done {
				continue
			}
			var found string
			ast.Inspect(d.fd.Body, func(n ast.Node) bool {
				if found != "" {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if name, ok := calleeCollective(call); ok {
						found = name
						return false
					}
				}
				return true
			})
			if found != "" {
				local[d.fn] = found
				changed = true
			}
		}
	}

	// Step 2: the package's table, for dependent packages to see through
	// its package-level functions and methods.
	pass.Collectives = map[string]string{}
	for fn, name := range local {
		if key, ok := analysis.ObjectKey(fn); ok {
			pass.Collectives[key] = name
		}
	}

	// Step 3: report collectives lexically inside rank-dependent regions.
	for _, d := range decls {
		checkCollFunc(pass, d.fd.Body, calleeCollective)
	}
}

// collRegion is collorder's state on one path of a function: whether a
// rank-tainted guard encloses it.
type collRegion struct {
	pass             *analysis.Pass
	tainted          map[types.Object]bool
	calleeCollective func(*ast.CallExpr) (string, bool)
	divergent        bool
}

// checkCollFunc taints rank-derived variables, then walks the body
// flagging collective-entering calls inside regions guarded by a tainted
// condition.
func checkCollFunc(pass *analysis.Pass, body *ast.BlockStmt,
	calleeCollective func(*ast.CallExpr) (string, bool)) {

	// Taint pass: variables bound (transitively) from Rank().
	r := collRegion{pass, map[types.Object]bool{}, calleeCollective, false}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.AssignStmt, *ast.ValueSpec:
				bindings(n, func(lhs, rhs ast.Expr) {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" || !r.exprTainted(rhs) {
						return
					}
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil && !r.tainted[obj] {
						r.tainted[obj] = true
						changed = true
					}
				})
			}
			return true
		})
	}
	walk(r, body.List)
}

// exprTainted reports whether e mentions a Rank() call or a tainted
// variable outside function literals.
func (r collRegion) exprTainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	hot := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch m := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			hot = hot || isRankCall(r.pass, m)
		case *ast.Ident:
			hot = hot || r.tainted[r.pass.TypesInfo.Uses[m]]
		}
		return !hot
	})
	return hot
}

// branch turns divergent at the first rank-tainted guard. Guards
// themselves execute on every rank, so they are visited at the enclosing
// level.
func (r collRegion) branch(guards ...ast.Expr) collRegion {
	for _, g := range guards {
		r.divergent = r.divergent || r.exprTainted(g)
	}
	return r
}

// visit reports the outermost collective-entering calls in n, outside
// function literals, when the region is divergent.
func (r collRegion) visit(n ast.Node) {
	if !r.divergent {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := r.calleeCollective(call)
		if !ok {
			return true
		}
		site := "collective " + name
		if _, isDirect := isDirectCollective(r.pass, call); !isDirect {
			site = "call to " + analysis.CalleeFunc(r.pass.TypesInfo, call).Name() + " (enters collective " + name + ")"
		}
		r.pass.Reportf(call.Pos(),
			"%s is only reachable under a rank-dependent condition: ranks would enter collectives in divergent order — hoist the collective out of the rank branch (root-rank work belongs inside, the collective outside)",
			site)
		return false
	})
}
