package lint

import (
	"go/ast"
	"go/types"

	"qsmpi/internal/lint/analysis"
)

// TraceCorr requires protocol-layer trace.Event emissions to set the Corr
// correlator. The critical-path profiler (obs.Analyze) stitches each
// message's cross-rank lifecycle — PML post, portals tx, NIC DMA, match,
// delivery — through Corr (a MsgID packing source rank and send-request
// id). An uncorrelated protocol event silently drops out of every chain,
// and the profiler's telescoping guarantee (phase durations summing
// exactly to end-to-end latency) degrades without any test failing.
var TraceCorr = &analysis.Analyzer{
	Name: "tracecorr",
	Doc: "require trace.Event literals in protocol layers (mpi, pml, " +
		"ptlelan4, ptltcp, tport) to set the Corr correlator",
	Run: runTraceCorr,
}

func runTraceCorr(pass *analysis.Pass) {
	if !protocolPkgs[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			named, _ := pass.TypesInfo.TypeOf(cl).(*types.Named)
			if !analysis.IsNamed(named, module+"/internal/trace", "Event") {
				return true
			}
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					// Positional literal: all fields present, Corr included.
					return true
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Corr" {
					return true
				}
			}
			pass.Reportf(cl.Pos(),
				"trace.Event emitted without Corr: the critical-path profiler chains protocol events by correlator, and this one will fall out of every message lifecycle (use trace.MsgID)")
			return true
		})
	}
}
