package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Compute/communication overlap and progress availability (ROADMAP
// item 3), following the OpenHPCA/Sandia overlap methodology: measure
// the pure communication time c of a nonblocking operation (post +
// immediate Wait), then re-run the same operation with an inserted
// compute block of w = c virtual microseconds between post and Wait and
// call the elapsed time o. A transport that makes full asynchronous
// progress hides the communication under the compute (o ≈ c + w −
// min(c, w) = w), one that only progresses inside Wait serialises them
// (o ≈ c + w). The overlap ratio
//
//	overlap = clamp((c + w − o) / c, 0, 1)        (w = c)
//
// is therefore 1 for perfect overlap and 0 for none. The sender side
// (Isend) is the classic overlap figure; the receiver side (Irecv) is
// the progress-availability figure — it exposes whether anything
// retires an arriving rendezvous while the host computes.

// OverlapModes are the progress configurations the overlap figures
// sweep, matching Table 1's rows: polling with per-endpoint queues,
// interrupt-driven waits on a shared event queue, and one or two
// asynchronous progress threads.
var OverlapModes = []string{"basic", "interrupt", "one-thread", "two-threads"}

// overlapSizes are the x values of the overlap curves (0 B – 64 KB,
// spanning the eager/rendezvous switch at the default 1984-byte limit).
var overlapSizes = []int{0, 1024, 4096, 16384, 65536}

// thresholdSizes restricts the eager-vs-rendezvous figure to the sizes
// where the protocol choice is in play.
var thresholdSizes = []int{1024, 4096, 16384, 65536}

// overlapRndvEager is the EagerLimit override that forces the rendezvous
// protocol for every size the threshold figure measures.
const overlapRndvEager = 64

// overlapSpec builds the 2-rank cluster spec for one progress mode.
// eager = 0 keeps the module's default eager limit.
func overlapSpec(mode string, eager, shards int) cluster.Spec {
	spec := modeSpec(mode)
	spec.Elan.EagerLimit, spec.Shards = eager, shards
	return spec
}

// overlapRatio measures one overlap point: rank 0 first times the
// nonblocking operation with an immediate Wait (phase A → c), then with
// a Compute(c) block between post and Wait (phase B → o), and the ratio
// above is returned. Rank 1 runs the identical peer loop in both
// phases, so the two phases see the same protocol behaviour. The timed
// region covers only post…Wait; the per-iteration control exchange that
// keeps the ranks in lockstep sits outside it.
func (c Config) overlapRatio(mode string, eager int, recvSide bool, size int) (float64, parsweep.Metrics) {
	iters := c.itersFor(size)
	warmup := c.Warmup
	var base, over simtime.Duration
	m := runMPI(overlapSpec(mode, eager, c.Shards), 2, func(p *cluster.Proc, comm *mpi.Comm) {
		buf := make([]byte, size)
		dt := datatype.Contiguous(size)
		empty := datatype.Contiguous(0)
		const dataTag, ctlTag = 7, 8
		if p.Rank == 0 {
			iter := func(compute simtime.Duration) simtime.Duration {
				start := p.Th.Now()
				if recvSide {
					rq := comm.Irecv(1, dataTag, buf, dt)
					// Ready handshake: the peer sends only into a posted
					// receive, so phase B genuinely overlaps an arrival.
					comm.Send(1, ctlTag, nil, empty)
					if compute > 0 {
						p.Th.Compute(compute)
					}
					rq.Wait()
					return p.Th.Now().Sub(start)
				}
				sq := comm.Isend(1, dataTag, buf, dt)
				if compute > 0 {
					p.Th.Compute(compute)
				}
				sq.Wait()
				elapsed := p.Th.Now().Sub(start)
				// Untimed drain ack: the next iteration starts clean.
				comm.Recv(1, ctlTag, nil, empty)
				return elapsed
			}
			for i := 0; i < warmup; i++ {
				iter(0)
			}
			for i := 0; i < iters; i++ {
				base += iter(0)
			}
			w := base / simtime.Duration(iters)
			for i := 0; i < iters; i++ {
				over += iter(w)
			}
		} else {
			peer := func() {
				if recvSide {
					comm.Recv(0, ctlTag, nil, empty)
					comm.Send(0, dataTag, buf, dt)
					return
				}
				comm.Recv(0, dataTag, buf, dt)
				comm.Send(0, ctlTag, nil, empty)
			}
			for i := 0; i < warmup+2*iters; i++ {
				peer()
			}
		}
	})
	cc := base.Micros() / float64(iters)
	o := over.Micros() / float64(iters)
	ratio := 1.0
	if cc > 0 {
		// w = c, so (c + w − o)/c = (2c − o)/c.
		ratio = max(0, min(1, (2*cc-o)/cc))
	}
	return ratio, m
}

// OverlapFigures produces the overlap figure family: sender-side
// overlap and receiver-side progress availability across the four
// progress modes, plus the eager-vs-rendezvous threshold ablation.
func OverlapFigures(cfg Config) []Result {
	ratio := func(name, mode string, eager int, recvSide bool) curve {
		return line(name, func(size int) (float64, parsweep.Metrics) { return cfg.overlapRatio(mode, eager, recvSide, size) })
	}
	modeFig := func(id, title string, recvSide bool) Result {
		return *cfg.sweep(plot{id, title, "message size bytes", "overlap ratio", overlapSizes, []curve{
			ratio("Basic", "basic", 0, recvSide),
			ratio("Interrupt", "interrupt", 0, recvSide),
			ratio("One Thread", "one-thread", 0, recvSide),
			ratio("Two Threads", "two-threads", 0, recvSide)}})
	}
	return []Result{
		modeFig("overlap-send", "Sender-side compute/communication overlap vs message size", false),
		modeFig("overlap-recv", "Receiver-side progress availability vs message size", true),
		*cfg.sweep(plot{"overlap-threshold", "Sender overlap, default eager limit vs forced rendezvous", "message size bytes", "overlap ratio", thresholdSizes, []curve{
			ratio("Basic eager", "basic", 0, false),
			ratio("Basic rndv", "basic", overlapRndvEager, false),
			ratio("Two Threads eager", "two-threads", 0, false),
			ratio("Two Threads rndv", "two-threads", overlapRndvEager, false)}}),
	}
}

// ObservedOverlap reruns one overlap configuration fully instrumented —
// cluster-wide tracer plus metrics registry — using the nonblocking
// collectives as the workload, so the progress-engine telemetry this PR
// adds (pml tests/progress_us/idle_us, CQ occupancy gauges, NBC spans
// and ProgressDuty counter samples) all appear in one representative
// run. Strictly sequential, like ObservedPingPong.
func ObservedOverlap(mode string, size, iters, warmup, limit int) Observed {
	return observe(iters, limit, func(iters int, rec *trace.Recorder, reg *obs.Registry) float64 {
		spec := overlapSpec(mode, 0, 0)
		spec.Tracer, spec.Metrics = rec, reg
		var lat float64
		runMPI(spec, 2, func(p *cluster.Proc, comm *mpi.Comm) {
			buf := make([]byte, 8)
			out := make([]byte, 8)
			dt := datatype.Contiguous(size)
			data := make([]byte, size)
			d := timed(p.Th, warmup, iters, func(i int) {
				var sq, rq *mpi.Request
				if p.Rank == 0 {
					sq = comm.Isend(1, 3, data, dt)
				} else {
					rq = comm.Irecv(0, 3, data, dt)
				}
				binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(p.Rank+i)))
				ar := comm.Iallreduce(buf, out, mpi.OpSumF64)
				p.Th.Compute(5 * simtime.Microsecond)
				ar.Wait()
				if p.Rank == 0 {
					sq.Wait()
				} else {
					rq.Wait()
				}
				comm.Ibarrier().Wait()
			})
			if p.Rank == 0 {
				lat = d
			}
		})
		return lat
	})
}

// OverlapClaims derives the asynchronous-progress verdicts from
// already-measured overlap figures (no extra simulation): every ratio
// must be a valid fraction, and at the 64 KB rendezvous point the
// two-thread shared-queue configuration must make at least as much
// progress as polling Basic on the availability curve.
func OverlapClaims(figs []Result) []Claim {
	var claims []Claim
	for i := range figs {
		f := &figs[i]
		ok := true
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.Value < 0 || p.Value > 1 {
					ok = false
				}
			}
		}
		claims = append(claims, Claim{
			ID:       f.ID + "-bounds",
			Paper:    fmt.Sprintf("overlap ratios are valid fractions (%s)", f.ID),
			Measured: fmt.Sprintf("%d series within [0,1]=%v", len(f.Series), ok),
			Pass:     ok,
		})
		if f.ID != "overlap-recv" {
			continue
		}
		basic := at(byName(f, "Basic"), 65536)
		twoT := at(byName(f, "Two Threads"), 65536)
		claims = append(claims, Claim{
			ID:       "overlap-recv-threads",
			Paper:    "progress threads keep the 64KB rendezvous advancing under compute",
			Measured: fmt.Sprintf("Basic %.3f vs Two Threads %.3f", basic, twoT),
			Pass:     twoT >= basic,
		})
	}
	return claims
}
