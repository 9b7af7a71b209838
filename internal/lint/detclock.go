package lint

import (
	"go/ast"

	"qsmpi/internal/lint/analysis"
)

// DetClock forbids wall-clock reads and global-randomness calls in
// simulation code. The simulator's entire value rests on runs being a
// pure function of their inputs — the report diffs byte-identical at
// -j 1 and -j N, golden timelines pin every event's virtual timestamp —
// and one time.Now or global rand.Intn on a simulation path breaks that
// silently. Wall-clock harnesses (parsweep's worker stats, the benchmark's
// one clock read in bench/main.go) annotate their sites with
// //lint:allow detclock <reason>.
var DetClock = &analysis.Analyzer{
	Name: "detclock",
	Doc: "forbid time.Now/time.Since and global math/rand in simulation code; " +
		"virtual time comes from simtime, randomness from an explicitly seeded source",
	Run: runDetClock,
}

// forbiddenTime are the package-level time functions that read or wait on
// the wall clock. Types and constants (time.Duration, time.RFC3339) and
// pure arithmetic remain free.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand are the math/rand constructors that build an explicitly
// seeded, locally owned source — the deterministic way to use the
// package. Every other package-level function touches the shared global
// source, whose sequence depends on what every other goroutine consumed.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true,
}

func runDetClock(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || analysis.FuncSig(fn).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if forbiddenTime[fn.Name()] {
					pass.Reportf(call.Pos(),
						"call to time.%s reads the wall clock; simulation code must use virtual time (simtime) — annotate //lint:allow detclock <reason> if this is a wall-clock harness",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					pass.Reportf(call.Pos(),
						"call to %s.%s uses the global random source; simulation code must draw from an explicitly seeded *rand.Rand it owns",
						fn.Pkg().Path(), fn.Name())
				}
			}
			return true
		})
	}
}
