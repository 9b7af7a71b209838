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

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/mpichq"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
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
func (r *Result) CSV() string { return r.format("%s", ",%s", "\n", "%d", ",%.4f") }

// Render formats the result as an aligned text table, sizes down the rows
// and series across the columns.
func (r *Result) Render() string {
	return fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title) +
		r.format("%-10s", " %21s", fmt.Sprintf("   (%s)\n", r.YLabel), "%-10d", " %21.2f")
}

// format walks the table both renderings share — the x label and the series
// names, then a row per point of the first series — with their formats.
func (r *Result) format(xhead, head, eol, x, cell string) string {
	var b strings.Builder
	fmt.Fprintf(&b, xhead, r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, head, s.Name)
	}
	b.WriteString(eol)
	if len(r.Series) == 0 {
		return b.String()
	}
	for i, p := range r.Series[0].Points {
		fmt.Fprintf(&b, x, p.Size)
		for _, s := range r.Series {
			fmt.Fprintf(&b, cell, s.Points[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- the two-rank ping-pong, over each of the three stacks ----

// OpenMPIPingPong measures mean half-round-trip latency (µs) of the Open
// MPI stack for one size under a spec.
func OpenMPIPingPong(spec cluster.Spec, size, iters int) float64 {
	lat, _, _ := Config{Warmup: Warmup, Shards: spec.Shards}.openMPI(spec, size, iters)
	return lat
}

// OpenMPILayered measures both the half-round-trip latency and the mean
// PML-layer cost (§6.3) for one size.
func OpenMPILayered(spec cluster.Spec, size, iters int) (total, pmlCost float64) {
	total, pmlCost, _ = Config{Warmup: Warmup, Shards: spec.Shards}.openMPI(spec, size, iters)
	return total, pmlCost
}

// openMPI is the Open MPI ping-pong under spec with the config's warmup and
// shards: its latency, its PML-layer cost and the engine metrics.
func (c Config) openMPI(spec cluster.Spec, size, iters int) (lat, pmlCost float64, m parsweep.Metrics) {
	spec.Shards = c.Shards
	k, ok := specKey(c.pingKey(openMPIPing, size, iters), spec)
	return c.simulate(k, ok, func() (float64, float64, parsweep.Metrics) {
		return pingPongOn(cluster.New(spec, 2), 1, size, iters, c.Warmup)
	})
}

// pingPongOn runs the ping-pong between rank 0 and rank peer of the fresh
// cluster c to completion; the caller keeps c for whatever it reads off it
// afterwards. Every other rank returns at once. The mean PML-layer cost of
// the two ranks is measured too: the layer trace only reads the clock.
func pingPongOn(c *cluster.Cluster, peer, size, iters, warmup int) (lat, pmlCost float64, m parsweep.Metrics) {
	var traces []*pml.LayerTrace
	m = run(c, func(p *cluster.Proc) {
		other := peer
		if p.Rank == peer {
			other = 0
		} else if p.Rank != 0 {
			return
		}
		p.Stack.Trace = &pml.LayerTrace{}
		traces = append(traces, p.Stack.Trace)
		dt := datatype.Contiguous(size)
		buf := make([]byte, size)
		scratch := make([]byte, size)
		pingPong(p.Th, p.Rank == 0, warmup, iters, &lat,
			func(tag int) { p.Stack.Send(p.Th, other, tag, 0, buf, dt).Wait(p.Th) },
			func(tag int) { p.Stack.Recv(p.Th, other, tag, 0, scratch, dt).Wait(p.Th) })
	})
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
	return lat, pmlCost, m
}

// tport is the MPICH-QsNetII ping-pong on a fresh two-rank job with the
// config's warmup.
func (c Config) tport(size, iters int) (float64, parsweep.Metrics) {
	lat, _, m := c.simulate(c.pingKey(tportPing, size, iters), true, func() (float64, float64, parsweep.Metrics) {
		lat, m := tportPingPong(mpichq.NewJob(2), size, iters, c.Warmup)
		return lat, 0, m
	})
	return lat, m
}

// tportPingPong is the MPICH-QsNetII baseline harness: mean half-round-trip
// latency (µs) of the ping-pong run to completion on the fresh two-rank job
// j, which the caller keeps for whatever it attached to it.
func tportPingPong(j *mpichq.Job, size, iters, warmup int) (lat float64, m parsweep.Metrics) {
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		buf := make([]byte, size)
		scratch := make([]byte, size)
		pingPong(th, rank == 0, warmup, iters, &lat,
			func(tag int) { c.Send(th, 1-rank, tag, buf) },
			func(tag int) { c.Recv(th, 1-rank, tag, scratch) })
	})
	if err := j.Run(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return lat, parsweep.Metrics{SimEvents: j.K.Steps()}
}

// QDMAPingPong measures native Quadrics QDMA half-round-trip latency (µs):
// the Fig. 9 baseline the PTL is compared against.
func QDMAPingPong(size, iters int) float64 {
	lat, _ := Config{Warmup: Warmup}.qdma(size, iters)
	return lat
}

// qdma is the native QDMA ping-pong with the config's warmup.
func (c Config) qdma(size, iters int) (float64, parsweep.Metrics) {
	if size > model.Default().QDMAMaxPayload {
		panic("experiments: QDMA size above hardware limit")
	}
	lat, _, m := c.simulate(c.pingKey(qdmaPing, size, iters), true, func() (float64, float64, parsweep.Metrics) {
		lat, m := qdmaPingPong(size, iters, c.Warmup)
		return lat, 0, m
	})
	return lat, m
}

func qdmaPingPong(size, iters, warmup int) (lat float64, m parsweep.Metrics) {
	b := bareNICs(2)
	queues := []*libelan.Queue{b.states[0].NewQueue(1, 64), b.states[1].NewQueue(1, 64)}
	payload := make([]byte, size)
	for i, name := range []string{"ping", "pong"} {
		b.hosts[i].Spawn(name, func(th *simtime.Thread) {
			pingPong(th, i == 0, warmup, iters, &lat,
				func(int) { b.states[i].QDMA(th, 1-i, 1, payload, nil, nil) },
				func(int) { queues[i].Recv(th, libelan.Poll) })
		})
	}
	m = b.run()
	return lat, m
}
