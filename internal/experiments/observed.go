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
		lat, _, _ := Config{Warmup: warmup, Shards: spec.Shards}.openMPI(spec, size, iters)
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
func observedTport(size, iters, warmup int) Observed {
	return observe(iters, 0, func(iters int, rec *trace.Recorder, reg *obs.Registry) float64 {
		j := mpichq.NewJob(2)
		j.SetTracer(rec)
		j.RegisterMetrics(reg)
		lat, _ := tportPingPong(j, size, iters, warmup)
		return lat
	})
}

// FigureRun is one representative point of a figure rerun fully
// instrumented — an unbounded recorder and a metrics registry attached —
// while the figure sweeps themselves run untraced, so their numbers stay
// byte-identical.
type FigureRun struct {
	ID   string // figure the point represents
	Note string // configuration and size of the representative point
	Observed
	// MetricsOnly marks a point whose stream is not a ping-pong the phase
	// profiler decomposes.
	MetricsOnly bool
}

// FigureRuns reruns one representative point per figure, in paper order.
// Sequential by design — a recorder is never shared across sweep workers —
// and fully deterministic.
func FigureRuns() []FigureRun {
	// A handful of iterations keeps the reruns cheap and already exhibits
	// the protocol shape the counters and phases show (eager vs rendezvous,
	// DMA mix, packet counts).
	iters, warmup := 4, 2
	pp := func(id, note string, spec cluster.Spec, size int) FigureRun {
		return FigureRun{ID: id, Note: note, Observed: ObservedPingPong(spec, size, iters, warmup, 0)}
	}
	noChain := bestRead()
	noChain.Elan.ChainFin = false
	return []FigureRun{
		pp("fig7a", "RDMA-Read, 256 B (eager path)", elanSpec(base(ptlelan4.RDMARead), false, pml.Polling), 256),
		pp("fig7b", "RDMA-Write, 4 KiB (rendezvous)", elanSpec(base(ptlelan4.RDMAWrite), false, pml.Polling), 4096),
		pp("fig8", "Read-NoChain, 4 KiB", noChain, 4096),
		pp("fig9", "RDMA-Read best options, 1984 B (eager limit)", bestRead(), 1984),
		pp("table1", "One progress thread, 4 KiB", modeSpec("one-thread"), 4096),
		{ID: "fig10", Note: "MPICH-QsNetII baseline, 4 KiB", Observed: observedTport(4096, iters, warmup)},
		pp("fig10", "PTL/Elan4-RDMA-Read, 64 KiB", bestRead(), 65536),
		{ID: "overlap", Note: "Two progress threads, NBC workload, 16 KiB", MetricsOnly: true,
			Observed: ObservedOverlap("two-threads", 16384, iters, warmup, 0)},
	}
}
