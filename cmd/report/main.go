// Command report measures every qualitative claim of the paper's
// evaluation against the simulated testbed and emits a markdown
// replication report with PASS/FAIL verdicts — the machine-checked
// counterpart of EXPERIMENTS.md.
//
//	go run ./cmd/report
//	go run ./cmd/report -iters 200   # tighter sweeps
//	go run ./cmd/report -j 8         # eight sweep workers
//	go run ./cmd/report -stats       # engine counters on stderr
//	go run ./cmd/report -metrics     # per-figure cross-layer metrics
//	go run ./cmd/report -waitstates  # wait-state attribution + heatmaps
//
// The report body is byte-identical at any -j: the parallel sweep
// engine only changes wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
)

func main() {
	iters := flag.Int("iters", 60, "timing iterations per measured point")
	workers := flag.Int("j", 0, "parallel sweep workers (0 = one per core)")
	stats := flag.Bool("stats", false, "print sweep-engine worker stats to stderr")
	metrics := flag.Bool("metrics", false, "append per-figure cross-layer metrics tables (representative instrumented reruns)")
	breakdown := flag.Bool("breakdown", false, "append per-figure phase-decomposition tables (representative instrumented reruns)")
	waitstates := flag.Bool("waitstates", false, "append wait-state attribution tables and arrival-skew histograms (seeded scenarios rerun sequentially)")
	shards := flag.Int("shards", 1, "worker shards per measurement cluster (conservative parallel kernel; every value ≥ 2 prints the same report, which differs from -shards 1 in one digit of the 4096-rank host barrier — DESIGN.md §7.2)")
	flag.Parse()
	var st parsweep.Stats
	cfg := experiments.DefaultConfig().WithIters(*iters)
	cfg.Workers = *workers
	cfg.Stats = &st
	cfg.Shards = *shards

	claims := experiments.Claims(cfg)
	// The collective-scaling figures are measured once; the offload
	// claims (NIC tree beats host tree at >= 256 ranks) are derived from
	// the same numbers, so the table and the figures always agree.
	collFigs := experiments.CollScaleFigures(cfg)
	claims = append(claims, experiments.CollScaleClaims(collFigs)...)
	// Same single-measurement discipline for the overlap family: the
	// asynchronous-progress claims (ratios are valid fractions, progress
	// threads keep the 64 KB rendezvous advancing) read the figures.
	overlapFigs := experiments.OverlapFigures(cfg)
	claims = append(claims, experiments.OverlapClaims(overlapFigs)...)
	fmt.Println("# Replication report: Open MPI over Quadrics/Elan4")
	fmt.Println()
	fmt.Println("| claim | paper | measured | verdict |")
	fmt.Println("|---|---|---|---|")
	failed := 0
	for _, c := range claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("| %s | %s | %s | %s |\n", c.ID, c.Paper, c.Measured, verdict)
	}
	fmt.Printf("\n%d/%d claims reproduced.\n", len(claims)-failed, len(claims))
	fmt.Println()
	fmt.Println("## Collective scaling (host vs NIC trees)")
	for _, f := range collFigs {
		fmt.Printf("\n```\n%s```\n", f.Render())
	}
	fmt.Println()
	fmt.Println("## Overlap & asynchronous progress")
	for _, f := range overlapFigs {
		fmt.Printf("\n```\n%s```\n", f.Render())
	}
	// The figure sweeps above run untraced (the report body stays
	// byte-identical); -metrics and -breakdown read one representative
	// point per figure, rerun sequentially with a registry and a tracer.
	runs := sync.OnceValue(experiments.FigureRuns)
	if *metrics {
		fmt.Println()
		fmt.Println("## Per-figure metrics (representative points)")
		for _, fr := range runs() {
			fmt.Printf("\n### %s — %s\n\n```\n%s```\n", fr.ID, fr.Note, fr.Metrics.Render())
		}
	}
	if *breakdown {
		fmt.Println()
		fmt.Println("## Per-figure phase decomposition (representative points)")
		for _, fr := range runs() {
			if !fr.MetricsOnly {
				prof := obs.Analyze(fr.Recorder.Events())
				fmt.Printf("\n### %s — %s\n\n```\n%s\n%s```\n", fr.ID, fr.Note, prof.RenderBreakdown(), prof.RenderCritical())
			}
		}
	}
	if *waitstates {
		// The seeded scenarios rerun sequentially like -metrics and
		// -breakdown; their reports are byte-identical at any -shards and
		// any -j (the wait-state reruns never touch the sweep engine).
		fmt.Println()
		fmt.Println("## Wait-state attribution (seeded scenarios)")
		fmt.Printf("\n```\n%s```\n", experiments.WaitStateReport(cfg.Shards))
		fmt.Println()
		fmt.Println("## Sampler heatmaps (8-rank mixed workload)")
		fmt.Printf("\n```\n%s```\n", experiments.HeatmapReport(8, 6, cfg.Shards, 72))
	}
	if *stats {
		fmt.Fprint(os.Stderr, st.String())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
