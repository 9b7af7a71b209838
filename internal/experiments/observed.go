package experiments

import (
	"qsmpi/internal/cluster"
	"qsmpi/internal/mpichq"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/trace"
)

// ObservedPingPong runs one instrumented sequential ping-pong of the Open
// MPI stack: a cluster-wide tracer and a metrics registry are attached via
// the Spec, so every layer (PML, PTL, libelan/elan4, fabric) records.
func ObservedPingPong(spec cluster.Spec, size, iters, warmup, limit int) Observed {
	return observe(iters, limit, func(iters int, rec *trace.Recorder, reg *obs.Registry) float64 {
		spec.Tracer, spec.Metrics = rec, reg
		lat, _, _ := pingPongOn(cluster.New(spec, 2), 1, size, iters, warmup, false)
		return lat
	})
}

// ObservedBestRead is ObservedPingPong over the paper's best RDMA-read
// configuration — the representative run the benchmark tools instrument
// when asked for a trace or a metrics table alongside their sweeps.
func ObservedBestRead(size, iters, warmup, limit int) Observed {
	return ObservedPingPong(bestRead(), size, iters, warmup, limit)
}

// observedTport is ObservedPingPong for the MPICH-QsNetII baseline stack.
func observedTport(size, iters, warmup, limit int) Observed {
	return observe(iters, limit, func(iters int, rec *trace.Recorder, reg *obs.Registry) float64 {
		j := mpichq.NewJob(2, nil)
		j.SetTracer(rec)
		j.RegisterMetrics(reg)
		lat, _ := tportPingPong(j, size, iters, warmup)
		return lat
	})
}

// FigureMetric is the metrics table of one representative instrumented
// point of a figure: the sweep itself runs untraced (figure numbers stay
// byte-identical), and this names the configuration that was rerun with a
// registry attached.
type FigureMetric struct {
	ID   string // figure the point represents
	Note string // configuration and size of the representative point
	Snap obs.Snapshot
}

// figureMetricIters keeps the instrumented reruns cheap: the counters they
// feed are protocol-shape metrics (eager vs rendezvous, DMA mix, packet
// counts), which a handful of iterations already exhibits.
const figureMetricIters = 4

// figurePoint is one representative point of a figure: run reruns it fully
// instrumented with a recorder bounded to limit events (0 = unbounded).
type figurePoint struct {
	id, note string
	run      func(limit int) Observed
	// metricsOnly marks a point whose stream is not a ping-pong the phase
	// profiler decomposes; FigureBreakdowns leaves it out.
	metricsOnly bool
}

// figurePoints lists the representative points in paper order; FigureMetrics
// and FigureBreakdowns both walk it.
func figurePoints() []figurePoint {
	iters, warmup := figureMetricIters, 2
	pp := func(spec cluster.Spec, size int) func(int) Observed {
		return func(limit int) Observed { return ObservedPingPong(spec, size, iters, warmup, limit) }
	}
	noChain := bestRead()
	noChain.Elan.ChainFin = false
	return []figurePoint{
		{id: "fig7a", note: "RDMA-Read, 256 B (eager path)",
			run: pp(elanSpec(base(ptlelan4.RDMARead), false, pml.Polling), 256)},
		{id: "fig7b", note: "RDMA-Write, 4 KiB (rendezvous)",
			run: pp(elanSpec(base(ptlelan4.RDMAWrite), false, pml.Polling), 4096)},
		{id: "fig8", note: "Read-NoChain, 4 KiB", run: pp(noChain, 4096)},
		{id: "fig9", note: "RDMA-Read best options, 1984 B (eager limit)", run: pp(bestRead(), 1984)},
		{id: "table1", note: "One progress thread, 4 KiB", run: pp(modeSpec("one-thread"), 4096)},
		{id: "fig10", note: "MPICH-QsNetII baseline, 4 KiB",
			run: func(limit int) Observed { return observedTport(4096, iters, warmup, limit) }},
		{id: "fig10", note: "PTL/Elan4-RDMA-Read, 64 KiB", run: pp(bestRead(), 65536)},
		{id: "overlap", note: "Two progress threads, NBC workload, 16 KiB", metricsOnly: true,
			run: func(limit int) Observed { return ObservedOverlap("two-threads", 16384, iters, warmup, limit) }},
	}
}

// FigureMetrics reruns one representative point per figure with a metrics
// registry attached and returns the snapshots in paper order. Sequential
// by design — see ObservedPingPong.
func FigureMetrics(cfg Config) []FigureMetric {
	var out []FigureMetric
	for _, pt := range figurePoints() {
		out = append(out, FigureMetric{pt.id, pt.note, pt.run(1).Metrics})
	}
	return out
}

// FigureBreakdown is the critical-path phase decomposition of one
// representative instrumented point of a figure (see FigureMetric for the
// sequential-rerun rationale).
type FigureBreakdown struct {
	ID      string // figure the point represents
	Note    string // configuration and size of the representative point
	Profile obs.Profile
}

// FigureBreakdowns reruns one representative point per figure with a
// tracer attached and profiles the event stream: per-path phase
// decomposition, per-peer flows and the critical path. Sequential by
// design and fully deterministic — the rendered tables are byte-identical
// across runs.
func FigureBreakdowns(cfg Config) []FigureBreakdown {
	var out []FigureBreakdown
	for _, pt := range figurePoints() {
		if pt.metricsOnly {
			continue
		}
		out = append(out, FigureBreakdown{pt.id, pt.note, obs.Analyze(pt.run(0).Recorder.Events())})
	}
	return out
}
