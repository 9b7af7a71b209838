package experiments

import (
	"fmt"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/cluster"
	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// The testbed layer: what builds, runs and times a simulation, once, under
// every harness of the package. What is simulated — buffers, tags,
// iteration counts, launch order — is the harness's argument to it.

// run launches body on every rank of the fresh cluster c, runs it to
// quiescence and returns the engine metrics. It is where a harness on the
// Open MPI stack fails.
func run(c *cluster.Cluster, body func(p *cluster.Proc)) parsweep.Metrics {
	c.Launch(body)
	if err := c.Run(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return clusterMetrics(c)
}

// runMPI is run on a fresh n-rank cluster with an mpi.World per rank, its
// collectives on the NIC trees when the spec builds them.
func runMPI(spec cluster.Spec, n int, body func(p *cluster.Proc, comm *mpi.Comm)) parsweep.Metrics {
	uni := mpi.NewUniverse()
	return run(cluster.New(spec, n), func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, n)
		if spec.HWColl {
			w.SetHWColl(p.Elan)
		}
		body(p, w.Comm())
	})
}

// clusterMetrics aggregates a finished cluster's kernel event count and
// the buffer-pool counters of every component (PML stacks, PTL modules,
// NICs) into sweep-engine metrics.
func clusterMetrics(c *cluster.Cluster) parsweep.Metrics {
	m := parsweep.Metrics{SimEvents: c.K.Steps()}
	addPool := func(s bufpool.Stats) {
		m.PoolGets += s.Gets
		m.PoolHits += s.Hits
		m.PoolPuts += s.Puts
	}
	for _, p := range c.Procs() {
		addPool(p.Stack.PoolStats())
		for _, mod := range p.Stack.Modules() {
			addPool(mod.PoolStats())
		}
	}
	for _, rail := range c.RailNICs {
		for _, nic := range rail {
			addPool(nic.PoolStats())
		}
	}
	return m
}

// timed runs op warmup+iters times on th and returns the mean time (µs) of
// the last iters of them.
func timed(th *simtime.Thread, warmup, iters int, op func(i int)) float64 {
	var total simtime.Duration
	for i := 0; i < warmup+iters; i++ {
		start := th.Now()
		op(i)
		if i >= warmup {
			total += th.Now().Sub(start)
		}
	}
	return total.Micros() / float64(iters)
}

// pingPong is one side of the exchange the latency harnesses time. The
// first side sends on tag 1 and waits for tag 2, and stores the mean half
// round trip (µs) in lat; the other side answers.
func pingPong(th *simtime.Thread, first bool, warmup, iters int, lat *float64, send, recv func(tag int)) {
	if first {
		*lat = timed(th, warmup, iters, func(int) { send(1); recv(2) }) / 2
		return
	}
	timed(th, warmup, iters, func(int) { recv(1); send(2) })
}

// bare is the testbed under the PTL: a kernel, one Quadrics rail and a
// libelan-attached NIC context per node, VPID i on node i.
type bare struct {
	k      *simtime.Kernel
	hosts  []*simtime.Host
	states []*libelan.State
}

// nodeResolver resolves VPID v to context 0 of node v, below the node count.
type nodeResolver int

func (n nodeResolver) Resolve(v int) (int, int, bool) { return v, 0, v >= 0 && v < int(n) }

// bareNICs brings the bare testbed up on n nodes; the caller spawns its
// threads on the hosts and calls run.
func bareNICs(n int) bare {
	cfg := model.Default()
	b := bare{k: simtime.NewKernel()}
	net := fabric.New(b.k, cfg.QuadricsFabric(), n)
	for i := 0; i < n; i++ {
		h := simtime.NewHost(b.k, fmt.Sprintf("n%d", i), cfg.HostCPUs)
		ctx := elan4.NewNIC(b.k, h, net, i, cfg, nodeResolver(n)).OpenContext(0)
		ctx.SetVPID(i)
		b.hosts = append(b.hosts, h)
		b.states = append(b.states, libelan.Attach(ctx, cfg))
	}
	return b
}

// run executes the bare testbed to quiescence and closes its kernel.
func (b bare) run() parsweep.Metrics {
	defer b.k.Close()
	b.k.Run()
	return parsweep.Metrics{SimEvents: b.k.Steps()}
}

// Observed is one fully instrumented run: the half-round-trip latency,
// the cross-layer event stream and the metrics snapshot at quiescence.
type Observed struct {
	LatencyUS float64
	Recorder  *trace.Recorder
	Metrics   obs.Snapshot
}

// observe is the instrumented run: a recorder bounded to limit events
// (0 = unbounded) and a metrics registry, which measure attaches to the
// testbed it runs (at least one timed iteration) and which are read at
// quiescence.
//
// A recorder must never be shared across parsweep workers, so every
// harness built on observe is strictly sequential: figure sweeps run
// untraced, and callers wanting observability for a figure rerun one
// representative point through here.
func observe(iters, limit int, measure func(iters int, rec *trace.Recorder, reg *obs.Registry) float64) Observed {
	rec := trace.NewRecorder(limit)
	reg := obs.New()
	lat := measure(max(iters, 1), rec, reg)
	return Observed{LatencyUS: lat, Recorder: rec, Metrics: reg.Snapshot()}
}

// ---- configuration builders ----

func elanSpec(opts ptlelan4.Options, dtp bool, progress pml.ProgressMode) cluster.Spec {
	return cluster.Spec{Elan: &opts, DTP: dtp, Progress: progress}
}

// base returns the Fig. 7 baseline for a scheme: inlined rendezvous data,
// chained completion, no shared CQ, memcpy datatype path.
func base(scheme ptlelan4.Scheme) ptlelan4.Options {
	o := ptlelan4.BestOptions(scheme)
	o.InlineRndv = true
	return o
}

// bestRead is the paper's best configuration (§6.5): RDMA read, chained
// completion, polling without a shared completion queue, rendezvous
// without inlined data. Every harness outside Fig. 7–10 starts from it.
func bestRead() cluster.Spec {
	return elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling)
}

// modeSpec is bestRead under one of Table 1's progress modes
// (cluster.Spec.WithProgressRow has the table).
func modeSpec(row string) cluster.Spec {
	spec, err := bestRead().WithProgressRow(row)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return spec
}
