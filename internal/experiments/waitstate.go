package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Wait-state scenarios (DESIGN.md §8.4): seeded runs whose wait
// structure is known by construction, so the attribution analyzer can
// be exercised end-to-end — a deliberately late sender, a deliberately
// late receiver (unexpected arrival), and staggered-compute barriers on
// the host software tree vs. the NIC combine tree. Everything here is
// deterministic at any shard count: the reports are rows of the identity
// matrix (identity_test.go).

// WaitScenario is one seeded run's name and recorded event stream.
type WaitScenario struct {
	Name   string
	Events []trace.Event
}

// lateSenderSkew is how much compute the tardy side performs before
// touching the network in the seeded point-to-point scenarios.
const lateSenderSkew = 40 * simtime.Microsecond

// tracedSpec is bestRead with an unbounded recorder attached, the spec every
// seeded scenario runs under.
func tracedSpec(shards int) (cluster.Spec, *trace.Recorder) {
	rec := trace.NewRecorder(0)
	spec := bestRead()
	spec.Shards, spec.Tracer = shards, rec
	return spec, rec
}

// traced runs body on the two ranks of a fresh cluster under tracedSpec and
// returns the event stream.
func traced(shards int, body func(p *cluster.Proc)) []trace.Event {
	spec, rec := tracedSpec(shards)
	run(cluster.New(spec, 2), body)
	return rec.Events()
}

// LateSenderEvents seeds the late-sender case: rank 1 posts its receive
// immediately, rank 0 computes for lateSenderSkew first. The analyzer
// must charge rank 1 with a late-sender wait of at least the skew.
func LateSenderEvents(shards int) []trace.Event {
	return traced(shards, func(p *cluster.Proc) {
		dt := datatype.Contiguous(256)
		buf := make([]byte, 256)
		if p.Rank == 0 {
			p.Th.Compute(lateSenderSkew)
			p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
		} else {
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
		}
	})
}

// LateReceiverEvents seeds the late-receiver case: rank 0 sends an
// eager tag-1 message immediately, but rank 1 is blocked in a receive
// of a different message (tag 2, which rank 0 only sends after
// lateSenderSkew of compute) — so its progress engine drains the tag-1
// arrival into the unexpected queue, where it sits until the tag-1
// receive is finally posted. The analyzer must charge rank 0 with a
// late-receiver wait on the tag-1 message.
func LateReceiverEvents(shards int) []trace.Event {
	return traced(shards, func(p *cluster.Proc) {
		dt := datatype.Contiguous(256)
		buf := make([]byte, 256)
		buf2 := make([]byte, 256)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
			p.Th.Compute(lateSenderSkew)
			p.Stack.Send(p.Th, 1, 2, 0, buf2, dt).Wait(p.Th)
		} else {
			p.Stack.Recv(p.Th, 0, 2, 0, buf2, dt).Wait(p.Th)
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
		}
	})
}

// BarrierSkewEvents seeds the wait-at-barrier case at n ranks: each
// rank computes rank×10 µs before entering each of iters barriers, so
// rank n−1 is always last in and every earlier rank's arrival skew is
// known by construction. nic selects the NIC combine tree (full
// connectivity, SetHWColl) against the host dissemination barrier.
func BarrierSkewEvents(n, iters int, nic bool, shards int) []trace.Event {
	spec, rec := tracedSpec(shards)
	spec.HWColl = nic
	runMPI(spec, n, func(p *cluster.Proc, comm *mpi.Comm) {
		for i := 0; i < iters; i++ {
			p.Th.Compute(simtime.Duration(p.Rank) * 10 * simtime.Microsecond)
			comm.Barrier()
		}
	})
	return rec.Events()
}

// WaitScenarios runs every seeded scenario at the given shard count.
func WaitScenarios(shards int) []WaitScenario {
	return []WaitScenario{
		{"late-sender (rank 0 computes 40us before send)", LateSenderEvents(shards)},
		{"late-receiver (rank 1 posts 40us after eager arrival)", LateReceiverEvents(shards)},
		{"barrier skew, host tree (4 ranks, rank*10us stagger)", BarrierSkewEvents(4, 3, false, shards)},
		{"barrier skew, NIC tree (4 ranks, rank*10us stagger)", BarrierSkewEvents(4, 3, true, shards)},
	}
}

// WaitStateReport renders the full wait-state attribution report over
// every seeded scenario: the taxonomy summary, per-rank and per-pair
// aggregations, collective epochs and arrival-skew histograms per
// scenario. Byte-identical at any shard count.
func WaitStateReport(shards int) string {
	var b strings.Builder
	for i, sc := range WaitScenarios(shards) {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "== %s ==\n", sc.Name)
		b.WriteString(obs.AnalyzeWaits(sc.Events).Render())
	}
	return b.String()
}

// samplerPeriod keeps the seeded sampler runs dense enough for visible
// heatmaps at small scale without swamping the recorder.
const samplerPeriod = 5 * simtime.Microsecond

// SampledRun runs an instrumented n-rank workload — a ping-pong chain
// overlapped with allreduce epochs, enough traffic to move every gauge
// — with the virtual-time sampler attached, and returns the sampler
// and the recorded stream. limit bounds the ring (0 = unbounded).
func SampledRun(n, iters, shards, limit int) (*obs.Sampler, *trace.Recorder) {
	return sampledRun(n, iters, shards, limit, true)
}

// sampledRun is SampledRun with the sampler optional: sample false is
// the identical workload with nothing attached, the baseline the
// zero-perturbation test compares against.
func sampledRun(n, iters, shards, limit int, sample bool) (*obs.Sampler, *trace.Recorder) {
	spec, rec := tracedSpec(shards)
	var smp *obs.Sampler
	if sample {
		smp = obs.NewSampler(samplerPeriod, limit)
		spec.Sampler = smp
	}
	runMPI(spec, n, func(p *cluster.Proc, comm *mpi.Comm) {
		dt := datatype.Contiguous(4096)
		buf := make([]byte, 4096)
		acc := make([]byte, 8)
		out := make([]byte, 8)
		next := (p.Rank + 1) % n
		prev := (p.Rank - 1 + n) % n
		for i := 0; i < iters; i++ {
			p.Th.Compute(simtime.Duration(p.Rank%3) * 2 * simtime.Microsecond)
			if p.Rank%2 == 0 {
				p.Stack.Send(p.Th, next, 7, 0, buf, dt).Wait(p.Th)
				p.Stack.Recv(p.Th, prev, 7, 0, buf, dt).Wait(p.Th)
			} else {
				p.Stack.Recv(p.Th, prev, 7, 0, buf, dt).Wait(p.Th)
				p.Stack.Send(p.Th, next, 7, 0, buf, dt).Wait(p.Th)
			}
			binary.LittleEndian.PutUint64(acc, math.Float64bits(float64(p.Rank+i)))
			comm.Allreduce(acc, out, mpi.OpSumF64)
		}
	})
	return smp, rec
}

// HeatmapReport renders the rank×time and link×time heatmaps of one
// seeded sampled run: progress duty, receive-queue depth and pending
// sends per rank, and per-interval uplink bytes per link. Deterministic
// and byte-identical at any shard count.
func HeatmapReport(n, iters, shards, maxCols int) string {
	smp, _ := SampledRun(n, iters, shards, 0)
	return smp.Heatmaps(maxCols)
}
