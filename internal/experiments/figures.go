package experiments

import (
	"qsmpi/internal/cluster"
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

// ping is the curve every latency figure is made of: the Open MPI
// ping-pong under spec at cfg.Iters.
func (c Config) ping(name string, spec cluster.Spec) curve {
	return line(name, func(n int) (float64, parsweep.Metrics) {
		lat, _, m := c.openMPI(spec, n, c.Iters)
		return lat, m
	})
}

// The paper's figures are defined once, as plots: the registry lists them,
// the exported functions below sweep them over the sizes they are given,
// and Claims reads single points of their curves.

// Fig7 reproduces "Performance Analysis of Basic RDMA Read and Write":
// the six series over the two panels' size ranges.
func Fig7(cfg Config, sizes []int, panel string) *Result { return cfg.sweep(fig7(cfg, sizes, panel)) }

func fig7(cfg Config, sizes []int, panel string) plot {
	mk := func(name string, opts ptlelan4.Options, dtp bool) curve {
		return cfg.ping(name, elanSpec(opts, dtp, pml.Polling))
	}
	read := base(ptlelan4.RDMARead)
	write := base(ptlelan4.RDMAWrite)
	return plot{"fig7" + panel, "Performance Analysis of Basic RDMA Read and Write (" + panel + ")", "bytes", "latency us", sizes, []curve{
		mk("RDMA-Read", read, false),
		mk("Read-NoInline", ptlelan4.BestOptions(ptlelan4.RDMARead), false),
		mk("Read-DTP", read, true),
		mk("RDMA-Write", write, false),
		mk("Write-NoInline", ptlelan4.BestOptions(ptlelan4.RDMAWrite), false),
		mk("Write-DTP", write, true)}}
}

// Fig8 reproduces "Performance Analysis with Chained DMA and Shared
// Completion Queue" (RDMA read based, per §6.2). One-Queue and Two-Queue
// are the completion queues polled, without the progress threads Table 1
// pairs them with.
func Fig8(cfg Config, sizes []int) *Result { return cfg.sweep(fig8(cfg, sizes)) }

func fig8(cfg Config, sizes []int) plot {
	mk := func(name string, opts ptlelan4.Options) curve {
		return cfg.ping(name, elanSpec(opts, false, pml.Polling))
	}
	chained := ptlelan4.BestOptions(ptlelan4.RDMARead)
	noChain := chained
	noChain.ChainFin = false
	oneQ := chained
	oneQ.CQ = ptlelan4.OneQueue
	twoQ := chained
	twoQ.CQ = ptlelan4.TwoQueue
	return plot{"fig8", "Chained DMA and Shared Completion Queue", "bytes", "latency us", sizes, []curve{
		mk("RDMA-Read", chained), mk("Read-NoChain", noChain), mk("One-Queue", oneQ), mk("Two-Queue", twoQ)}}
}

// Fig9 reproduces "Analysis of Communication Overhead in Different
// Layers": native QDMA latency, the PTL-layer latency and the PML-layer
// cost, all per half round trip. The last two are one curve: one Open MPI
// ping-pong per size yields both.
func Fig9(cfg Config, sizes []int) *Result { return cfg.sweep(fig9(cfg, sizes)) }

func fig9(cfg Config, sizes []int) plot {
	return plot{"fig9", "Communication Overhead in Different Layers", "bytes", "latency us", sizes, []curve{
		line("QDMA latency", func(n int) (float64, parsweep.Metrics) { return cfg.qdma(n, cfg.Iters) }),
		{[]string{"PTL Latency", "PML Layer Cost"}, func(n int) ([]float64, parsweep.Metrics) {
			total, pmlc, m := cfg.openMPI(bestRead(), n, cfg.Iters)
			return []float64{total - pmlc, pmlc}, m
		}}}}
}

// Table1 reproduces "Performance Analysis of Thread-Based Asynchronous
// Progress": Basic / Interrupt / One Thread / Two Threads at 4 B and
// 4 KB over the RDMA-read scheme.
func Table1(cfg Config) *Result { return cfg.sweep(table1(cfg)) }

func table1(cfg Config) plot {
	return plot{"table1", "Thread-Based Asynchronous Progress (RDMA-Read)", "bytes", "latency us", []int{4, 4096}, []curve{
		cfg.ping("Basic", modeSpec("basic")),
		cfg.ping("Interrupt", modeSpec("interrupt")),
		cfg.ping("One Thread", modeSpec("one-thread")),
		cfg.ping("Two Threads", modeSpec("two-threads"))}}
}

// Fig10 reproduces "Overall Performance of Open MPI over Quadrics/Elan4":
// latency and bandwidth versus MPICH-QsNetII, small and large panels. The
// best PTL options of §6.5 are used: chained completion, polling without a
// shared completion queue, rendezvous without inlined data.
func Fig10(cfg Config, sizes []int, panel string, bandwidth bool) *Result {
	return cfg.sweep(fig10(cfg, sizes, panel, bandwidth))
}

func fig10(cfg Config, sizes []int, panel string, bandwidth bool) plot {
	metric := "latency us"
	unit := func(n int, halfRTus float64) float64 { return halfRTus }
	if bandwidth {
		metric, unit = "MB/s", toBW
	}
	mpich := line("MPICH-QsNetII", func(n int) (float64, parsweep.Metrics) {
		l, m := cfg.tport(n, cfg.itersFor(n))
		return unit(n, l), m
	})
	openmpi := func(name string, scheme ptlelan4.Scheme) curve {
		spec := elanSpec(ptlelan4.BestOptions(scheme), false, pml.Polling)
		return line(name, func(n int) (float64, parsweep.Metrics) {
			l, _, m := cfg.openMPI(spec, n, cfg.itersFor(n))
			return unit(n, l), m
		})
	}
	return plot{"fig10" + panel, "Open MPI over Quadrics/Elan4 vs MPICH-QsNetII (" + panel + ")", "bytes", metric, sizes, []curve{
		mpich, openmpi("PTL/Elan4-RDMA-Read", ptlelan4.RDMARead), openmpi("PTL/Elan4-RDMA-Write", ptlelan4.RDMAWrite)}}
}

// toBW converts a half-round-trip latency (µs) into MB/s.
func toBW(n int, halfRTus float64) float64 {
	if halfRTus <= 0 {
		return 0
	}
	return float64(n) / halfRTus // bytes/µs == MB/s
}
