package experiments

import (
	"fmt"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/mpi"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
)

// Ablations beyond the paper's figures: sweeps over the design parameters
// DESIGN.md calls out (eager threshold, rail count, queue depth, fabric
// scale, hardware vs software broadcast). Each is a plot in the registry,
// in the same format as the figures.

// ablationEager sweeps the eager/rendezvous switch point. The paper fixes
// it at 1984 (one QDMA slot minus the header); the sweep shows the latency
// cliff a too-small threshold creates.
func ablationEager(cfg Config) plot {
	var curves []curve
	for _, th := range []int{256, 512, 1024, 1984} {
		spec := bestRead()
		spec.Elan.EagerLimit = th
		curves = append(curves, cfg.ping(fmt.Sprintf("eager=%d", th), spec))
	}
	return plot{"ablate-eager", "Eager threshold vs latency", "bytes", "latency us", []int{512, 1024, 1984}, curves}
}

// ablationMultirail compares one and two Quadrics rails (the paper's
// future-work item) on large-message bandwidth under the write scheme.
func ablationMultirail(cfg Config) plot {
	var curves []curve
	for _, rails := range []int{1, 2} {
		spec := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMAWrite), false, pml.Polling)
		spec.ElanRails = rails
		curves = append(curves, line(fmt.Sprintf("%d-rail", rails), func(n int) (float64, parsweep.Metrics) {
			lat, _, m := cfg.openMPI(spec, n, cfg.itersFor(n))
			return toBW(n, lat), m
		}))
	}
	return plot{"ablate-multirail", "Multirail Quadrics bandwidth (RDMA write)", "bytes", "MB/s", []int{16384, 65536, 262144, 1048576}, curves}
}

// ablationFatTree measures zero-byte and 4 KB latency between the most
// distant nodes — rank 0 and rank n−1 of an n-node cluster — as the fat
// tree grows (1, 2 and 3 switch levels with the radix-8 Elite-4 building
// block), at half the configured iterations but no fewer than 10.
func ablationFatTree(cfg Config) plot {
	var curves []curve
	for _, size := range []int{0, 4096} {
		curves = append(curves, line(fmt.Sprintf("%dB", size), func(nodes int) (float64, parsweep.Metrics) {
			spec := bestRead()
			spec.Nodes, spec.Shards = nodes, cfg.Shards
			lat, _, m := pingPongOn(cluster.New(spec, nodes), nodes-1, size, max(cfg.Iters/2, 10), cfg.Warmup)
			return lat, m
		}))
	}
	return plot{"ablate-fattree", "Fat-tree scale vs far-corner latency", "nodes", "latency us", []int{2, 8, 64}, curves}
}

// ablationQueueSlots measures QDMA retries as the receive-queue depth
// (QSLOTS) shrinks under an incast burst: 7 senders, one slow receiver.
// One simulation per depth yields both curves.
func ablationQueueSlots(Config) plot {
	return plot{"ablate-qslots", "Receive-queue depth vs NACK retries (7-to-1 incast)", "slots", "retries", []int{2, 4, 16, 64},
		[]curve{{[]string{"retries", "drain-time-us"}, incastRetries}}}
}

// incastRetries returns the NACK retries of the burst and the time (µs) at
// which the receiver has drained it.
func incastRetries(slots int) ([]float64, parsweep.Metrics) {
	const nodes = 8
	const perSender = 16
	spec := bestRead()
	cfg := model.Default()
	cfg.QueueSlots = slots
	spec.Model = &cfg
	c := cluster.New(spec, nodes)
	var drainAt simtime.Time
	m := run(c, func(p *cluster.Proc) {
		dt := datatype.Contiguous(512)
		if p.Rank == 0 {
			// Slow receiver: post receives late so the queue backs up.
			p.Th.Proc().Sleep(200 * simtime.Microsecond)
			for src := 1; src < nodes; src++ {
				for i := 0; i < perSender; i++ {
					buf := make([]byte, 512)
					p.Stack.Recv(p.Th, src, i, 0, buf, dt).Wait(p.Th)
				}
			}
			drainAt = p.Th.Now()
			return
		}
		for i := 0; i < perSender; i++ {
			p.Stack.Send(p.Th, 0, i, 0, make([]byte, 512), dt)
		}
		p.Stack.Block(p.Th, func() bool { return p.Stack.PendingSends() == 0 }, true)
	})
	var retries int64
	for _, nic := range c.NICs {
		retries += nic.Stats().Retries
	}
	return []float64{float64(retries), drainAt.Micros()}, m
}

// ablationHWBcast compares QsNet hardware broadcast (switch-replicated
// QDMA multicast) against the software binomial-tree broadcast for 1 KB
// payloads across group sizes — the benefit §4.1 says dynamically joined
// processes must forgo.
func ablationHWBcast(Config) plot {
	return plot{"ablate-hwbcast", "Hardware vs software broadcast (1KB)", "nodes", "latency us", []int{2, 4, 8, 16}, []curve{
		line("hardware", func(nodes int) (float64, parsweep.Metrics) { return hwBcastLatency(nodes, 1024) }),
		line("software-binomial", func(nodes int) (float64, parsweep.Metrics) { return swBcastLatency(nodes, 1024) })}}
}

// hwBcastLatency measures a root's hardware broadcast until every leaf
// has consumed its copy, using libelan directly (a static, synchronized
// group — the precondition the paper states).
func hwBcastLatency(nodes, size int) (float64, parsweep.Metrics) {
	b := bareNICs(nodes)
	queues := make([]*libelan.Queue, nodes)
	var dsts []int
	for i := 1; i < nodes; i++ {
		queues[i] = b.states[i].NewQueue(1, 8)
		dsts = append(dsts, i)
	}
	var last simtime.Time
	b.hosts[0].Spawn("root", func(th *simtime.Thread) {
		b.states[0].BcastQDMA(th, dsts, 1, payload(size), nil, nil)
	})
	for i := 1; i < nodes; i++ {
		b.hosts[i].Spawn("leaf", func(th *simtime.Thread) {
			queues[i].Release(queues[i].Recv(th, libelan.Poll))
			last = max(last, th.Now())
		})
	}
	m := b.run()
	return last.Micros(), m
}

// swBcastLatency measures the binomial-tree mpi.Bcast over the full stack.
func swBcastLatency(nodes, size int) (float64, parsweep.Metrics) {
	var startAt, last simtime.Time
	m := runMPI(bestRead(), nodes, func(p *cluster.Proc, comm *mpi.Comm) {
		comm.Barrier()
		if p.Rank == 0 {
			startAt = p.Th.Now()
		}
		buf := make([]byte, size)
		comm.Bcast(0, buf, datatype.Contiguous(size))
		last = max(last, p.Th.Now())
	})
	return (last - startAt).Micros(), m
}
