package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"qsmpi/internal/lint/analysis"
)

// KernelOwn enforces the per-kernel ownership rule (DESIGN.md §7.1): a
// simulation's mutable state belongs to exactly one kernel's job, which
// is what lets every pool, cache and queue in the stack stay lock-free
// under the kernel's lockstep discipline, and what makes parallel sweeps
// byte-identical to sequential ones. Two rules:
//
//  1. simulation packages must not carry package-level mutable state —
//     a package-level var may only be written from init (read-only
//     tables, error sentinels and operator funcs are fine);
//  2. a job closure passed to parsweep.Run/Map must not capture another
//     job's kernel-owned values: no captured pointers to simulation
//     types (clusters, kernels, stacks, NICs, recorders, registries,
//     pools), and no writes to any captured variable — job i writes
//     slot i and nothing else;
//  3. shard-resident layers (the per-node protocol stacks and NIC model,
//     DESIGN.md §7.2) must not schedule, read the clock or draw
//     randomness through a raw *simtime.Kernel: under the sharded
//     conservative engine those degenerate to the coordinator's view,
//     so events land in the wrong heap and random streams become
//     placement-dependent. Every such call goes through the component's
//     entity-bound simtime.Sched.
var KernelOwn = &analysis.Analyzer{
	Name: "kernelown",
	Doc: "enforce the per-kernel ownership rule: no package-level mutable " +
		"simulation state, no kernel-owned captures or captured-variable " +
		"writes in parsweep job closures, no raw kernel scheduling in " +
		"shard-resident layers",
	Run: runKernelOwn,
}

func runKernelOwn(pass *analysis.Pass) {
	if isSimStatePkg(pass.Pkg.Path()) {
		checkGlobalWrites(pass)
	}
	if isShardResidentPkg(pass.Pkg.Path()) {
		checkShardSched(pass)
	}
	checkJobClosures(pass)
}

// checkGlobalWrites reports writes to package-level vars outside init.
func checkGlobalWrites(pass *analysis.Pass) {
	// Collect the package-level vars declared in this package.
	globals := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						globals[obj] = true
					}
				}
			}
		}
	}
	if len(globals) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				continue // one-time setup is effectively part of the declaration
			}
			reportWrite := func(e ast.Expr, how string) {
				root := analysis.RootIdent(e)
				if root == nil {
					return
				}
				if obj := pass.TypesInfo.ObjectOf(root); obj != nil && globals[obj] {
					pass.Reportf(e.Pos(),
						"package-level %s is %s outside init: simulation state must be owned by one kernel's job, not shared through package globals (DESIGN.md §7.1)",
						root.Name, how)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						reportWrite(lhs, "written")
					}
				case *ast.IncDecStmt:
					reportWrite(st.X, "written")
				}
				return true
			})
		}
	}
}

// shardSchedMethods are the Kernel methods whose direct use inside a
// shard-resident layer breaks shard ownership, with the Sched replacement
// each diagnostic names.
var shardSchedMethods = map[string]string{
	"Now":             "Sched.Now",
	"At":              "Sched.At",
	"After":           "Sched.After",
	"AfterCancelable": "Sched.AfterCancelable",
	"Rand":            "Sched.Rand",
}

// checkShardSched flags clock, scheduling and randomness calls made on a
// raw *simtime.Kernel from a shard-resident package.
func checkShardSched(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			repl, hot := shardSchedMethods[sel.Sel.Name]
			if !hot {
				return true
			}
			recv := pass.TypesInfo.TypeOf(sel.X)
			if recv == nil || !isKernelPtr(recv) {
				return true
			}
			pass.Reportf(call.Pos(),
				"shard-resident layer calls Kernel.%s: under the sharded kernel this is the coordinator's view, not this entity's — use the entity-bound %s (DESIGN.md §7.2)",
				sel.Sel.Name, repl)
			return true
		})
	}
}

// isKernelPtr reports whether t is *simtime.Kernel.
func isKernelPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Kernel" && obj.Pkg() != nil &&
		obj.Pkg().Path() == module+"/internal/simtime"
}

// checkJobClosures audits every closure passed to parsweep.Run/Map.
func checkJobClosures(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != module+"/internal/parsweep" {
				return true
			}
			if fn.Name() != "Run" && fn.Name() != "Map" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			job, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkJob(pass, fn.Name(), job)
			return false // the job body was just audited; don't re-enter
		})
	}
}

// checkJob inspects one job closure: captured kernel-owned values and
// writes through any captured variable.
func checkJob(pass *analysis.Pass, engine string, job *ast.FuncLit) {
	local := func(obj types.Object) bool {
		return job.Pos() <= obj.Pos() && obj.Pos() <= job.End()
	}
	reportedCapture := map[types.Object]bool{}
	ast.Inspect(job.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				reportCapturedWrite(pass, engine, lhs, local)
			}
		case *ast.IncDecStmt:
			reportCapturedWrite(pass, engine, st.X, local)
		case *ast.Ident:
			obj, ok := pass.TypesInfo.Uses[st].(*types.Var)
			if !ok || obj.IsField() || local(obj) || reportedCapture[obj] {
				return true
			}
			if obj.Parent() == nil || obj.Pkg() == nil {
				return true
			}
			if owned, what := kernelOwnedType(obj.Type()); owned {
				reportedCapture[obj] = true
				pass.Reportf(st.Pos(),
					"parsweep.%s job captures %s (%s): kernel-owned state shared across jobs breaks the per-kernel ownership rule — create it inside the job",
					engine, st.Name, what)
			}
		}
		return true
	})
}

// reportCapturedWrite flags an assignment through a variable declared
// outside the job closure.
func reportCapturedWrite(pass *analysis.Pass, engine string, lhs ast.Expr, local func(types.Object) bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	root := analysis.RootIdent(lhs)
	if root == nil {
		return
	}
	obj, ok := pass.TypesInfo.ObjectOf(root).(*types.Var)
	if !ok || obj.IsField() || local(obj) {
		return
	}
	// Writing *through* a plain ident LHS that is :=-defined here shows
	// up as a Defs entry, which ObjectOf resolves; local() already keeps
	// those. Anything else is a cross-job write.
	pass.Reportf(lhs.Pos(),
		"parsweep.%s job writes captured %s: jobs may only write their own slot (results flow through return values)",
		engine, root.Name)
}

// kernelOwnedType reports whether t is (or contains, through slices,
// arrays, maps and channels) a pointer to a named simulation type.
func kernelOwnedType(t types.Type) (bool, string) {
	for i := 0; i < 8; i++ { // bounded unwrap of container layers
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Pointer:
			n, ok := u.Elem().(*types.Named)
			if !ok {
				return false, ""
			}
			obj := n.Obj()
			if obj.Pkg() == nil || !isKernelOwnedPkg(obj.Pkg().Path()) {
				return false, ""
			}
			if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
				return false, ""
			}
			return true, "*" + obj.Pkg().Name() + "." + obj.Name()
		default:
			return false, ""
		}
	}
	return false, ""
}
