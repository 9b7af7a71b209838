// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the series names, workloads and parameter sweeps match
// the paper, and the cmd/elan4bench and cmd/ompibench tools print the same
// rows the figures plot. Absolute microseconds come from the calibrated
// model; the claims reproduced are the relationships between
// configurations (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"strings"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/mpichq"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
)

// Warmup iterations before timing starts (the paper uses 100 on real
// hardware; the simulator is deterministic, so a handful suffices to
// populate registration and queue state).
const Warmup = 10

// Point is one (message size, value) sample.
type Point struct {
	Size  int
	Value float64
}

// Series is one labelled curve.
type Series struct {
	Name   string
	Points []Point
}

// Result is one reproduced figure or table panel.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// CSV formats the result as comma-separated values for plotting tools:
// a header row of series names, then one row per size.
func (r *Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, ",%s", s.Name)
	}
	b.WriteByte('\n')
	if len(r.Series) == 0 {
		return b.String()
	}
	for i, p := range r.Series[0].Points {
		fmt.Fprintf(&b, "%d", p.Size)
		for _, s := range r.Series {
			fmt.Fprintf(&b, ",%.4f", s.Points[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render formats the result as an aligned text table, sizes down the rows
// and series across the columns.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%-10s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %21s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", r.YLabel)
	if len(r.Series) == 0 {
		return b.String()
	}
	for i, p := range r.Series[0].Points {
		fmt.Fprintf(&b, "%-10d", p.Size)
		for _, s := range r.Series {
			fmt.Fprintf(&b, " %21.2f", s.Points[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- measurement harnesses ----

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
		for _, mod := range p.Elans {
			addPool(mod.PoolStats())
		}
		if p.TCP != nil {
			addPool(p.TCP.PoolStats())
		}
	}
	for _, rail := range c.RailNICs {
		for _, nic := range rail {
			addPool(nic.PoolStats())
		}
	}
	return m
}

// OpenMPIPingPong measures mean half-round-trip latency (µs) of the Open
// MPI stack for one size under a spec.
func OpenMPIPingPong(spec cluster.Spec, size, iters int) float64 {
	lat, _, _ := openMPITraced(spec, size, iters, Warmup, false)
	return lat
}

// OpenMPILayered measures both the half-round-trip latency and the mean
// PML-layer cost (§6.3) for one size.
func OpenMPILayered(spec cluster.Spec, size, iters int) (total, pmlCost float64) {
	total, pmlCost, _ = openMPITraced(spec, size, iters, Warmup, true)
	return total, pmlCost
}

// openMPIPingPong is the Config-aware harness the parallel sweeps use:
// warmup comes from the config and the engine metrics are reported.
func (c Config) openMPIPingPong(spec cluster.Spec, size, iters int) (float64, parsweep.Metrics) {
	spec.Shards = c.Shards
	lat, _, m := openMPITraced(spec, size, iters, c.Warmup, false)
	return lat, m
}

// openMPILayered is OpenMPILayered plus engine metrics.
func (c Config) openMPILayered(spec cluster.Spec, size int) (total, pmlCost float64, m parsweep.Metrics) {
	spec.Shards = c.Shards
	return openMPITraced(spec, size, c.Iters, c.Warmup, true)
}

func openMPITraced(spec cluster.Spec, size, iters, warmup int, trace bool) (float64, float64, parsweep.Metrics) {
	c := cluster.New(spec, 2)
	lat, pmlCost := pingPongOn(c, size, iters, warmup, trace)
	return lat, pmlCost, clusterMetrics(c)
}

// pingPongOn runs the ping-pong harness to completion on the fresh two-rank
// cluster c, which the caller keeps for whatever it reads off it afterwards.
func pingPongOn(c *cluster.Cluster, size, iters, warmup int, trace bool) (lat, pmlCost float64) {
	var total simtime.Duration
	var traces []*pml.LayerTrace
	c.Launch(func(p *cluster.Proc) {
		if trace {
			p.Stack.Trace = &pml.LayerTrace{}
			traces = append(traces, p.Stack.Trace)
		}
		dt := datatype.Contiguous(size)
		buf := make([]byte, size)
		scratch := make([]byte, size)
		if p.Rank == 0 {
			for i := 0; i < warmup+iters; i++ {
				start := p.Th.Now()
				p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
				p.Stack.Recv(p.Th, 1, 2, 0, scratch, dt).Wait(p.Th)
				if i >= warmup {
					total += p.Th.Now().Sub(start)
				}
			}
		} else {
			for i := 0; i < warmup+iters; i++ {
				p.Stack.Recv(p.Th, 0, 1, 0, scratch, dt).Wait(p.Th)
				p.Stack.Send(p.Th, 0, 2, 0, buf, dt).Wait(p.Th)
			}
		}
	})
	if err := c.Run(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	lat = total.Micros() / float64(iters) / 2
	var n int
	for _, tr := range traces {
		if tr.Count > 0 {
			pmlCost += tr.Mean()
			n++
		}
	}
	if n > 0 {
		pmlCost /= float64(n)
	}
	return lat, pmlCost
}

// tportPingPong is the Config-aware MPICH-QsNetII baseline harness: mean
// half-round-trip latency (µs) plus engine metrics.
func (c Config) tportPingPong(size, iters int) (float64, parsweep.Metrics) {
	j := mpichq.NewJob(2, nil)
	lat := tportPingPongOn(j, size, iters, c.Warmup)
	return lat, parsweep.Metrics{SimEvents: j.K.Steps()}
}

// tportPingPongOn runs the baseline's ping-pong to completion on the fresh
// two-rank job j, which the caller keeps for whatever it attached to it.
func tportPingPongOn(j *mpichq.Job, size, iters, warmup int) float64 {
	var total simtime.Duration
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		buf := make([]byte, size)
		scratch := make([]byte, size)
		if rank == 0 {
			for i := 0; i < warmup+iters; i++ {
				start := th.Now()
				c.Send(th, 1, 1, buf)
				c.Recv(th, 1, 2, scratch)
				if i >= warmup {
					total += th.Now().Sub(start)
				}
			}
		} else {
			for i := 0; i < warmup+iters; i++ {
				c.Recv(th, 0, 1, scratch)
				c.Send(th, 0, 2, buf)
			}
		}
	})
	if err := j.Run(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return total.Micros() / float64(iters) / 2
}

// QDMAPingPong measures native Quadrics QDMA half-round-trip latency (µs):
// the Fig. 9 baseline the PTL is compared against.
func QDMAPingPong(size, iters int) float64 {
	lat, _ := qdmaPingPong(size, iters, Warmup)
	return lat
}

// qdmaPingPong is the Config-aware native-QDMA harness.
func (c Config) qdmaPingPong(size, iters int) (float64, parsweep.Metrics) {
	return qdmaPingPong(size, iters, c.Warmup)
}

func qdmaPingPong(size, iters, warmup int) (float64, parsweep.Metrics) {
	cfg := model.Default()
	if size > cfg.QDMAMaxPayload {
		panic("experiments: QDMA size above hardware limit")
	}
	k := simtime.NewKernel()
	defer k.Close()
	net := fabric.New(k, fabric.Params{
		LinkBandwidth: cfg.LinkBandwidth, WireLatency: cfg.WireLatency,
		SwitchLatency: cfg.SwitchLatency, MTU: cfg.MTU,
		PacketOverhead: cfg.PacketOverhead, Arity: cfg.FatTreeRadix,
	}, 2)
	res := map[int][2]int{0: {0, 0}, 1: {1, 0}}
	resolver := staticResolver(res)
	var states []*libelan.State
	var hosts []*simtime.Host
	for i := 0; i < 2; i++ {
		h := simtime.NewHost(k, fmt.Sprintf("n%d", i), cfg.HostCPUs)
		nic := elan4.NewNIC(k, h, net, i, cfg, resolver)
		ctx := nic.OpenContext(0)
		ctx.SetVPID(i)
		hosts = append(hosts, h)
		states = append(states, libelan.Attach(ctx, cfg))
	}
	q0 := states[0].NewQueue(1, 64)
	q1 := states[1].NewQueue(1, 64)
	payload := make([]byte, size)
	var total simtime.Duration
	hosts[0].Spawn("ping", func(th *simtime.Thread) {
		for i := 0; i < warmup+iters; i++ {
			start := th.Now()
			states[0].QDMA(th, 1, 1, payload, nil, nil)
			q0.Recv(th, libelan.Poll)
			if i >= warmup {
				total += th.Now().Sub(start)
			}
		}
	})
	hosts[1].Spawn("pong", func(th *simtime.Thread) {
		for i := 0; i < warmup+iters; i++ {
			q1.Recv(th, libelan.Poll)
			states[1].QDMA(th, 0, 1, payload, nil, nil)
		}
	})
	k.Run()
	return total.Micros() / float64(iters) / 2, parsweep.Metrics{SimEvents: k.Steps()}
}

type staticResolver map[int][2]int

func (r staticResolver) Resolve(v int) (int, int, bool) {
	e, ok := r[v]
	return e[0], e[1], ok
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
