// Package lint is the qsmpilint analyzer suite: six static checkers
// that turn the simulator's prose invariants — virtual-time determinism,
// byte-identical output at any -j, the per-kernel ownership rule of
// DESIGN.md §7.1, lock-free pool discipline, the profiler's correlator
// contract, and the MPI protocol contracts (request lifecycle, uniform
// collective order) — into rules that fail `make check`. The analyzers
// run over the real tree via `qsmpilint ./...` (make lint), and over
// seeded-violation fixtures under testdata/src via the analysistest-style
// runner in linttest. ownership and collorder are protocol-aware; collorder
// is interprocedural, seeing through helpers via the table of collective
// entry points each package publishes to its dependents. Unused
// //lint:allow directives are themselves diagnostics (the suppression
// audit in analysis.Pass.RunSuite).
package lint

import (
	"strings"

	"qsmpi/internal/lint/analysis"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetClock,
		MapOrder,
		KernelOwn,
		Ownership,
		TraceCorr,
		CollOrder,
	}
}

// module is the import-path prefix of this repository.
const module = "qsmpi"

// protocolPkgs are the layers whose trace.Event emissions must carry the
// Corr correlator: the profiler (internal/obs.Analyze) reconstructs each
// message's cross-rank lifecycle through it, and its telescoping
// guarantee (phase durations sum exactly to end-to-end latency) silently
// loses any protocol event emitted without one. NIC- and fabric-layer
// events (elan4, fabric) are exempt: raw descriptor and wire traffic may
// legitimately be uncorrelated.
var protocolPkgs = map[string]bool{
	module + "/internal/mpi":      true,
	module + "/internal/pml":      true,
	module + "/internal/ptlelan4": true,
	module + "/internal/ptltcp":   true,
	module + "/internal/tport":    true,
}

// simStatePkgs are the packages in which package-level mutable state is
// forbidden (kernelown): everything that runs inside — or is owned by —
// a simulation kernel. parsweep (the engine hosting concurrent kernels)
// and lint itself are excluded; experiments is included because its
// sweeps run many kernels concurrently.
func isSimStatePkg(path string) bool {
	if path == module {
		return true
	}
	rest, ok := strings.CutPrefix(path, module+"/internal/")
	if !ok {
		return false
	}
	head, _, _ := strings.Cut(rest, "/")
	switch head {
	case "parsweep", "lint":
		return false
	}
	return true
}

// shardResidentPkgs are the layers that execute on worker shards under
// the sharded conservative kernel (kernelown rule 3): every event they
// create must go through an entity-bound simtime.Sched so it lands in the
// owning shard's heap, and every random draw through Sched.Rand so the
// stream is placement-independent. The global services (rte, obs) are
// exempt: they run on the coordinator by construction.
func isShardResidentPkg(path string) bool {
	rest, ok := strings.CutPrefix(path, module+"/internal/")
	if !ok {
		return false
	}
	switch rest {
	case "fabric", "elan4", "pml", "ptlelan4", "ptltcp", "tport", "libelan":
		return true
	}
	return false
}

// kernelOwnedPkgs are the packages whose pointer-typed values are
// per-kernel state: sharing one across parsweep jobs is the exact bug the
// determinism contract (one kernel, one owner) forbids.
func isKernelOwnedPkg(path string) bool {
	if path == module {
		return true
	}
	rest, ok := strings.CutPrefix(path, module+"/internal/")
	if !ok {
		return false
	}
	head, _, _ := strings.Cut(rest, "/")
	switch head {
	case "parsweep", "lint", "experiments", "model", "datatype":
		// parsweep's own types (Ctx, Stats) are engine plumbing;
		// experiments.Config, model.Config and datatype descriptors are
		// immutable job parameters, shared by design.
		return false
	}
	return true
}
