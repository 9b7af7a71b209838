// Command elan4bench regenerates the PTL/Elan4 design-analysis experiments
// of the paper: Fig. 7 (basic RDMA read/write, inline and datatype
// variants), Fig. 8 (chained DMA and shared completion queue), Fig. 9
// (per-layer communication cost) and Table 1 (thread-based asynchronous
// progress).
//
// Usage:
//
//	elan4bench            # everything
//	elan4bench -fig 7     # one figure (7, 8 or 9)
//	elan4bench -table 1   # table 1
//	elan4bench -iters 200 # more timing iterations per point
//	elan4bench -j 8       # eight sweep workers (output identical at any -j)
package main

import (
	"flag"
	"fmt"
	"log"

	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
)

func main() {
	flag.Int("fig", 0, "figure to regenerate (7, 8 or 9; 0 = all)")
	flag.Int("table", 0, "table to regenerate (1; 0 = per -fig)")
	flag.Bool("ablate", false, "run the ablation sweeps instead of the paper figures")
	traceOut := flag.String("trace", "", "also write a Perfetto trace of one representative exchange to this file")
	metrics := flag.Bool("metrics", false, "also print cross-layer metrics of one representative exchange")
	breakdown := flag.Bool("breakdown", false, "also print the phase decomposition and critical path of one representative exchange")
	traceSize := flag.Int("tracesize", 4096, "message size for the -trace/-metrics/-breakdown representative exchange")
	// -fig, -table and -ablate are looked up in the experiments registry.
	experiments.Tool("fig", "table")
	observe(*traceOut, *metrics, *breakdown, *traceSize)
}

// observe runs one representative best-RDMA-read exchange with full-stack
// instrumentation attached. The sweeps above never see the tracer (a
// recorder must not be shared across sweep workers), so their figures are
// untouched by these flags.
func observe(traceOut string, metrics, breakdown bool, size int) {
	if traceOut == "" && !metrics && !breakdown {
		return
	}
	ob := experiments.ObservedBestRead(size, 1, 0, 0)
	if metrics {
		fmt.Printf("\n# representative exchange (%d B, best RDMA-read): cross-layer metrics\n", size)
		fmt.Print(ob.Metrics.Render())
	}
	if breakdown {
		prof := obs.Analyze(ob.Recorder.Events())
		fmt.Printf("\n# representative exchange (%d B, best RDMA-read): phase decomposition\n", size)
		fmt.Print(prof.RenderBreakdown())
		fmt.Printf("\n")
		fmt.Print(prof.RenderCritical())
	}
	if traceOut != "" {
		if err := obs.WritePerfettoFile(traceOut, ob.Recorder); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d trace events to %s (load at ui.perfetto.dev)\n", ob.Recorder.Len(), traceOut)
	}
}
