package experiments

import (
	"qsmpi/internal/cluster"
	"qsmpi/internal/mpichq"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// Sweep sizes matching the figures' x-axes. These are canonical defaults
// passed by value into the generators; they are never mutated (a sweep
// that wants different sizes passes its own slice).
var (
	// Fig7SmallSizes: panel (a), very small messages.
	Fig7SmallSizes = []int{0, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	// Fig7LargeSizes: panel (b), around the 1984-byte eager threshold.
	Fig7LargeSizes = []int{512, 1024, 2048, 4096}
	// Fig8Sizes: chained-DMA / completion-queue sweep.
	Fig8Sizes = []int{0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	// Fig9Sizes: layering analysis, up to the eager threshold.
	Fig9Sizes = []int{0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1984}
	// Fig10SmallSizes / Fig10LargeSizes: overall comparison.
	Fig10SmallSizes = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	Fig10LargeSizes = []int{2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576}
)

// figure sweeps the series of one figure or table panel.
func (c Config) figure(id, title, xlabel, ylabel string, specs ...seriesSpec) *Result {
	return &Result{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, Series: c.sweep(specs...)}
}

// ping is the point every latency curve is made of: the Open MPI ping-pong
// under spec at cfg.Iters.
func (c Config) ping(spec cluster.Spec) pointFn {
	return func(n int) (float64, parsweep.Metrics) { return c.openMPIPingPong(spec, n, c.Iters) }
}

// Fig7 reproduces "Performance Analysis of Basic RDMA Read and Write":
// the six series over the two panels' size ranges.
func Fig7(cfg Config, sizes []int, panel string) *Result {
	mk := func(opts ptlelan4.Options, dtp bool) pointFn { return cfg.ping(elanSpec(opts, dtp, pml.Polling)) }
	read := base(ptlelan4.RDMARead)
	readNoInline := ptlelan4.BestOptions(ptlelan4.RDMARead)
	write := base(ptlelan4.RDMAWrite)
	writeNoInline := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
	return cfg.figure("fig7"+panel, "Performance Analysis of Basic RDMA Read and Write ("+panel+")", "bytes", "latency us",
		seriesSpec{"RDMA-Read", sizes, mk(read, false)},
		seriesSpec{"Read-NoInline", sizes, mk(readNoInline, false)},
		seriesSpec{"Read-DTP", sizes, mk(read, true)},
		seriesSpec{"RDMA-Write", sizes, mk(write, false)},
		seriesSpec{"Write-NoInline", sizes, mk(writeNoInline, false)},
		seriesSpec{"Write-DTP", sizes, mk(write, true)})
}

// Fig8 reproduces "Performance Analysis with Chained DMA and Shared
// Completion Queue" (RDMA read based, per §6.2). One-Queue and Two-Queue
// are the completion queues polled, without the progress threads Table 1
// pairs them with.
func Fig8(cfg Config, sizes []int) *Result {
	mk := func(opts ptlelan4.Options) pointFn { return cfg.ping(elanSpec(opts, false, pml.Polling)) }
	chained := ptlelan4.BestOptions(ptlelan4.RDMARead)
	noChain := chained
	noChain.ChainFin = false
	oneQ := chained
	oneQ.CQ = ptlelan4.OneQueue
	twoQ := chained
	twoQ.CQ = ptlelan4.TwoQueue
	return cfg.figure("fig8", "Chained DMA and Shared Completion Queue", "bytes", "latency us",
		seriesSpec{"RDMA-Read", sizes, mk(chained)},
		seriesSpec{"Read-NoChain", sizes, mk(noChain)},
		seriesSpec{"One-Queue", sizes, mk(oneQ)},
		seriesSpec{"Two-Queue", sizes, mk(twoQ)})
}

// Fig9 reproduces "Analysis of Communication Overhead in Different
// Layers": native QDMA latency, the PTL-layer latency and the PML-layer
// cost, all per half round trip. The layered measurements produce two
// curves from one simulation, so each size is one job returning both.
func Fig9(cfg Config, sizes []int) *Result {
	r := cfg.figure("fig9", "Communication Overhead in Different Layers", "bytes", "latency us",
		seriesSpec{"QDMA latency", sizes, func(n int) (float64, parsweep.Metrics) {
			return qdmaPingPong(n, cfg.Iters, cfg.Warmup)
		}})
	layered := fanOut(cfg, len(sizes), func(i int) ([2]float64, parsweep.Metrics) {
		total, pmlc, m := cfg.openMPILayered(bestRead(), sizes[i])
		return [2]float64{total - pmlc, pmlc}, m
	})
	r.Series = append(r.Series, pair(sizes, layered, "PTL Latency", "PML Layer Cost")...)
	return r
}

// Table1 reproduces "Performance Analysis of Thread-Based Asynchronous
// Progress": Basic / Interrupt / One Thread / Two Threads at 4 B and
// 4 KB over the RDMA-read scheme.
func Table1(cfg Config) *Result {
	sizes := []int{4, 4096}
	return cfg.figure("table1", "Thread-Based Asynchronous Progress (RDMA-Read)", "bytes", "latency us",
		seriesSpec{"Basic", sizes, cfg.ping(modeSpec("basic"))},
		seriesSpec{"Interrupt", sizes, cfg.ping(modeSpec("interrupt"))},
		seriesSpec{"One Thread", sizes, cfg.ping(modeSpec("one-thread"))},
		seriesSpec{"Two Threads", sizes, cfg.ping(modeSpec("two-threads"))})
}

// Fig10 reproduces "Overall Performance of Open MPI over Quadrics/Elan4":
// latency and bandwidth versus MPICH-QsNetII, small and large panels. The
// best PTL options of §6.5 are used: chained completion, polling without a
// shared completion queue, rendezvous without inlined data.
func Fig10(cfg Config, sizes []int, panel string, bandwidth bool) *Result {
	metric := "latency us"
	unit := func(n int, halfRTus float64) float64 { return halfRTus }
	if bandwidth {
		metric, unit = "MB/s", toBW
	}
	mpich := func(n int) (float64, parsweep.Metrics) {
		l, m := tportPingPong(mpichq.NewJob(2, nil), n, cfg.itersFor(n), cfg.Warmup)
		return unit(n, l), m
	}
	openmpi := func(scheme ptlelan4.Scheme) pointFn {
		spec := elanSpec(ptlelan4.BestOptions(scheme), false, pml.Polling)
		return func(n int) (float64, parsweep.Metrics) {
			l, m := cfg.openMPIPingPong(spec, n, cfg.itersFor(n))
			return unit(n, l), m
		}
	}
	return cfg.figure("fig10"+panel, "Open MPI over Quadrics/Elan4 vs MPICH-QsNetII ("+panel+")", "bytes", metric,
		seriesSpec{"MPICH-QsNetII", sizes, mpich},
		seriesSpec{"PTL/Elan4-RDMA-Read", sizes, openmpi(ptlelan4.RDMARead)},
		seriesSpec{"PTL/Elan4-RDMA-Write", sizes, openmpi(ptlelan4.RDMAWrite)})
}

// toBW converts a half-round-trip latency (µs) into MB/s.
func toBW(n int, halfRTus float64) float64 {
	if halfRTus <= 0 {
		return 0
	}
	return float64(n) / halfRTus // bytes/µs == MB/s
}
