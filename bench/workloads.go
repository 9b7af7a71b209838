package main

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"time"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/experiments"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// workload is one set of inputs the benchmark runs. All six are closed
// loops: every rank issues its next operation only after the previous one
// completed, and the load comes from this one process.
type workload struct {
	name, why string
	// plain says what the body's comparison variant is, if it has one:
	// "sequential" is the same work on the other kernel engine, "untraced"
	// is what the traced repetition runs, with the hooks off.
	plain string
	// prepare builds the inputs from the seed, once per process and
	// outside every timed region.
	prepare func(e *env) *body
}

// body is a prepared workload.
type body struct {
	// rep runs the whole workload once.
	rep func(r *rep)
	// setupOnly brings up the workload's clusters and runs nothing on
	// them: one more sample of setup_s.
	setupOnly func(r *rep)
	// plain is the comparison variant workload.plain describes.
	plain func(r *rep)
	// traced is what the traced repetition runs with the program's hooks
	// on: plain, for the workloads whose plain is "untraced"; otherwise nil
	// and the traced repetition runs rep.
	traced func(r *rep)
}

var workloads = []workload{
	{"pingpong", "2 ranks, the paper's Fig. 10 size ladder: shallow heap, 2 ports, match depth 1, so kernel handoff dominates", "", preparePingpong},
	{"alltoall-32", "32 ranks, 31 posted receives per rank, sizes by rank distance: deep matching, mixed eager and rendezvous, contended links", "", prepareAlltoall},
	{"coll-1024", "1024 ranks of barrier and allreduce on host trees then NIC trees: the scale regime, and the only real set-up cost", "", func(e *env) *body { return prepareColl(e, 1, true) }},
	{"coll-1024-sh2", "the host-tree half of coll-1024 on the sharded kernel with 2 shards: the second kernel engine", "sequential", func(e *env) *body { return prepareColl(e, 2, false) }},
	{"observed-16", "16 ranks with tracer, metrics, sampler and watchdog on, then every analyzer: bypasses the kernel, stresses recording and analysis", "untraced", prepareObserved},
	{"report", "the 391 short simulations of the replication report through the parallel sweep: set-up dominated, every progress mode and transport", "untraced", prepareReport},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// bestRead is the PTL configuration the paper measures Fig. 10 with.
func bestRead() cluster.Spec {
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	return cluster.Spec{Elan: &o, Progress: pml.Polling}
}

// skews draws compute skew per rank and iteration, 0–1 µs. Only
// observed-16 skews every iteration. Contended exchanges are chaotic — a
// microsecond of skew at the start of alltoall-32 moves its sim_us by a
// percent, the whole of the metric's bound — so alltoall-32 and coll-1024*
// compute their skew after the last iteration, where it makes sim_us differ
// between seeds without making it scatter.
func skews(rng *rand.Rand, ranks, iters int) [][]simtime.Duration {
	out := make([][]simtime.Duration, ranks)
	for r := range out {
		out[r] = make([]simtime.Duration, iters)
		for i := range out[r] {
			out[r][i] = simtime.Duration(rng.Int63n(int64(simtime.Microsecond)))
		}
	}
	return out
}

// ---- pingpong ----

func preparePingpong(e *env) *body {
	rng := rand.New(rand.NewSource(e.seed))
	eager := []int{0, 4, 64, 512, 1984}
	rndv := []int{4 << 10, 64 << 10, 1 << 20}
	rng.Shuffle(len(eager), func(i, j int) { eager[i], eager[j] = eager[j], eager[i] })
	rng.Shuffle(len(rndv), func(i, j int) { rndv[i], rndv[j] = rndv[j], rndv[i] })
	nEager, nRndv := e.n(36000), e.n(1800)
	sizes := make([]int, 0, nEager+nRndv)
	var rndvBytes int64
	for i := 0; i < nEager; i++ {
		sizes = append(sizes, eager[i%len(eager)])
	}
	for i := 0; i < nRndv; i++ {
		sizes = append(sizes, rndv[i%len(rndv)])
		rndvBytes += 2 * int64(rndv[i%len(rndv)])
	}
	start := skews(rng, 2, 1)

	// One pattern per direction; a message of n bytes is its first n.
	// All buffers live here, outside the timed loop.
	const maxSize = 1 << 20
	var pattern, recv [2][]byte
	for r := range pattern {
		pattern[r], recv[r] = make([]byte, maxSize), make([]byte, maxSize)
		fill(pattern[r], e.seed, r, 1-r)
	}
	types := map[int]*datatype.Datatype{}
	for _, n := range sizes {
		if types[n] == nil {
			types[n] = datatype.Contiguous(n)
		}
	}

	sh := shape{"pingpong", 2, bestRead}
	once := func(r *rep) {
		var atRndv time.Time
		enter, run := r.run(sh, func(p *cluster.Proc, out *rankOut) {
			me, peer := p.Rank, 1-p.Rank
			p.Th.Compute(start[me][0])
			for i, n := range sizes {
				if me == 0 && i == nEager {
					atRndv = now()
				}
				dt := types[n]
				if me == 0 {
					stamp(pattern[0][:n], i)
					p.Stack.Send(p.Th, peer, 1, 0, pattern[0][:n], dt).Wait(p.Th)
					p.Stack.Recv(p.Th, peer, 2, 0, recv[0][:n], dt).Wait(p.Th)
				} else {
					p.Stack.Recv(p.Th, peer, 1, 0, recv[1][:n], dt).Wait(p.Th)
					stamp(pattern[1][:n], i)
					p.Stack.Send(p.Th, peer, 2, 0, pattern[1][:n], dt).Wait(p.Th)
				}
				out.received(recv[me][:n], pattern[peer], i)
			}
		})
		if !atRndv.IsZero() {
			r.n.eagerT += atRndv.Sub(enter)
			r.n.rndvT += enter.Add(run).Sub(atRndv)
			r.n.eagerN += 2 * int64(nEager)
			r.n.rndvKB += rndvBytes / 1024
		}
	}
	return &body{rep: once, setupOnly: func(r *rep) { r.run(sh, idle) }}
}

// idle is the body of a set-up-only cluster.
func idle(*cluster.Proc, *rankOut) {}

// ---- alltoall-32 ----

func prepareAlltoall(e *env) *body {
	const ranks = 32
	rng := rand.New(rand.NewSource(e.seed))
	choices := []int{1 << 10, 4 << 10, 16 << 10}
	iters := e.n(40)
	// One send and one receive buffer per ordered (src, dst) pair. A pair's
	// size goes by the distance between the two ranks, so every rank sends
	// and receives the same bytes; ranks walk their peers nearest first.
	var send, recv [ranks][ranks][]byte
	var types [ranks][ranks]*datatype.Datatype
	var peers [ranks][]int
	byLen := map[int]*datatype.Datatype{}
	for _, n := range choices {
		byLen[n] = datatype.Contiguous(n)
	}
	for s := 0; s < ranks; s++ {
		for dist := 1; dist < ranks; dist++ {
			d := (s + dist) % ranks
			n := choices[dist%len(choices)]
			peers[s] = append(peers[s], d)
			types[s][d] = byLen[n]
			send[s][d], recv[s][d] = make([]byte, n), make([]byte, n)
			fill(send[s][d], e.seed, s, d)
		}
	}
	tail := skews(rng, ranks, 1)

	sh := shape{"alltoall-32", ranks, bestRead}
	once := func(r *rep) {
		uni := mpi.NewUniverse()
		r.run(sh, func(p *cluster.Proc, out *rankOut) {
			me := p.Rank
			comm := mpi.NewWorld(p.Th, p.Stack, uni, me, ranks).Comm()
			reqs := make([]*mpi.Request, 0, 2*(ranks-1))
			for i := 0; i < iters; i++ {
				reqs = reqs[:0]
				for _, peer := range peers[me] {
					reqs = append(reqs, comm.Irecv(peer, i, recv[peer][me], types[peer][me]))
				}
				for _, peer := range peers[me] {
					stamp(send[me][peer], i)
					reqs = append(reqs, comm.Isend(peer, i, send[me][peer], types[me][peer]))
				}
				mpi.Waitall(reqs...)
				for _, peer := range peers[me] {
					out.received(recv[peer][me], send[peer][me], i)
				}
			}
			p.Th.Compute(tail[me][0])
		})
	}
	return &body{rep: once, setupOnly: func(r *rep) { r.run(sh, idle) }}
}

// ---- coll-1024 and coll-1024-sh2 ----

// prepareColl is barrier plus 8-byte allreduce at 1024 ranks over the
// restricted bring-up topology of the collective-scaling figures: on host
// trees, and when nic is set on a second cluster with the NIC combine
// trees, which is cheaper per collective and so runs more of them.
func prepareColl(e *env, shards int, nic bool) *body {
	const ranks = 1024
	rng := rand.New(rand.NewSource(e.seed))
	hostIters, nicIters := e.n(3), e.n(10)
	tail := skews(rng, ranks, 1)

	spec := func(hw bool) func() cluster.Spec {
		return func() cluster.Spec {
			s := bestRead()
			s.Shards, s.HWColl, s.Peers = shards, hw, experiments.CollPeers
			return s
		}
	}
	host := shape{"host-tree", ranks, spec(false)}
	hw := shape{"nic-tree", ranks, spec(true)}

	collectives := func(r *rep, sh shape, hwColl bool, iters int) time.Duration {
		uni := mpi.NewUniverse()
		_, run := r.run(sh, func(p *cluster.Proc, out *rankOut) {
			w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, ranks)
			if hwColl {
				w.SetHWColl(p.Elan)
			}
			comm := w.Comm()
			in, sum := make([]byte, 8), make([]byte, 8)
			for i := 0; i < iters; i++ {
				comm.Barrier()
				binary.LittleEndian.PutUint64(in, math.Float64bits(float64(p.Rank+i)))
				comm.Allreduce(in, sum, mpi.OpSumF64)
				// Σ(rank+i) over all ranks; integers this small are exact.
				want := float64(ranks*(ranks-1)/2 + ranks*i)
				if math.Float64frombits(binary.LittleEndian.Uint64(sum)) != want {
					out.failed++
				}
			}
			p.Th.Compute(tail[p.Rank][0])
			// One op per collective, not per rank: run caps the ranks'
			// mismatches at the ops attempted.
			if p.Rank == 0 {
				out.ops = 2 * int64(iters)
			}
		})
		return run
	}
	once := func(r *rep) {
		r.n.hostCollT += collectives(r, host, false, hostIters)
		r.n.hostColls += 2 * int64(hostIters)
		if nic {
			r.n.nicCollT += collectives(r, hw, true, nicIters)
			r.n.nicColls += 2 * int64(nicIters)
		}
	}
	b := &body{rep: once, setupOnly: func(r *rep) {
		r.run(host, idle)
		if nic {
			r.run(hw, idle)
		}
	}}
	if shards > 1 {
		// The same body on the sequential engine, for sh2_speedup_x.
		seq := prepareColl(e, 1, false)
		b.plain = seq.rep
	}
	return b
}

// ---- observed-16 ----

// hashWriter digests what is written to it: the Perfetto export is
// checked and timed without holding 200 MB of JSON.
type hashWriter struct {
	h io.Writer
	n int64
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func prepareObserved(e *env) *body {
	const ranks, msg = 16, 4 << 10
	rng := rand.New(rand.NewSource(e.seed))
	iters := e.n(200)
	skew := skews(rng, ranks, iters)
	var send, recv [ranks][]byte
	for r := range send {
		send[r], recv[r] = make([]byte, msg), make([]byte, msg)
		fill(send[r], e.seed, r, (r+1)%ranks)
	}
	dt := datatype.Contiguous(msg)

	ring := func(uni *mpi.Universe) func(p *cluster.Proc, out *rankOut) {
		return func(p *cluster.Proc, out *rankOut) {
			me := p.Rank
			next, prev := (me+1)%ranks, (me+ranks-1)%ranks
			comm := mpi.NewWorld(p.Th, p.Stack, uni, me, ranks).Comm()
			in, sum := make([]byte, 8), make([]byte, 8)
			for i := 0; i < iters; i++ {
				p.Th.Compute(skew[me][i])
				stamp(send[me], i)
				rq := comm.Irecv(prev, 7, recv[me], dt)
				comm.Send(next, 7, send[me], dt)
				rq.Wait()
				out.received(recv[me], send[prev], i)
				binary.LittleEndian.PutUint64(in, math.Float64bits(float64(me+i)))
				comm.Allreduce(in, sum, mpi.OpSumF64)
				out.ops++
				if math.Float64frombits(binary.LittleEndian.Uint64(sum)) != float64(ranks*(ranks-1)/2+ranks*i) {
					out.failed++
				}
			}
		}
	}

	// The watchdog's timer keeps the kernel, and with it the sampler,
	// running for up to one window after the last rank is done; the default
	// window of 10 ms would be longer than the whole body. 4 KB messages
	// leave no gap near half a millisecond.
	const window = 500 * simtime.Microsecond
	plainShape := shape{"plain-16", ranks, bestRead}
	newSampler := func() *obs.Sampler { return obs.NewSampler(5*simtime.Microsecond, 0) }
	observed := func(rec *trace.Recorder, reg *obs.Registry, smp *obs.Sampler) shape {
		return shape{"observed-16", ranks, func() cluster.Spec {
			s := bestRead()
			s.Tracer, s.Metrics, s.Sampler, s.Watchdog = rec, reg, smp, obs.NewWatchdog(window)
			return s
		}}
	}
	once := func(r *rep) {
		rec, reg, smp := trace.NewRecorder(0), obs.New(), newSampler()
		r.run(observed(rec, reg, smp), ring(mpi.NewUniverse()))
		events := rec.Events()
		r.note("events=%d ticks=%d\n", len(events), smp.Ticks())

		r.post("obs.Analyze", &r.n.analyzeT, func() {
			prof := obs.Analyze(events)
			r.note("%s%s", prof.RenderBreakdown(), prof.RenderFlows())
		})
		r.post("obs.AnalyzeWaits", &r.n.waitsT, func() {
			r.note("%s", obs.AnalyzeWaits(events).Render())
		})
		r.post("obs.WritePerfetto", &r.n.perfettoT, func() {
			w := &hashWriter{h: r.digest}
			if err := obs.WritePerfetto(w, events); err != nil {
				r.failed = r.ops
			}
			r.note("perfetto=%d\n", w.n)
		})
		r.post("heatmaps", &r.n.heatT, func() {
			r.note("%s", smp.RankMatrix(obs.GaugeDuty).Heatmap(72))
			r.note("%s", smp.RankMatrix(obs.GaugeRecvQDepth).Heatmap(72))
			r.note("%s", smp.RankMatrix(obs.GaugePendingSends).Heatmap(72))
			r.note("%s", smp.LinkMatrix(obs.LinkGaugeBytes).Deltas().Heatmap(72))
			r.note("%s", reg.Snapshot().Render())
		})
	}
	return &body{
		rep:       once,
		setupOnly: func(r *rep) { r.run(observed(trace.NewRecorder(0), obs.New(), newSampler()), idle) },
		// The same ring with nothing attached and nothing analyzed, and
		// with only the tracer and the metrics registry.
		plain:  func(r *rep) { r.run(plainShape, ring(mpi.NewUniverse())) },
		traced: func(r *rep) { r.run(plainShape, ring(mpi.NewUniverse())) },
	}
}

// ---- report ----

// bracket returns the values of the grid points on either side of size.
func bracket(grid []experiments.Point, size int) (below, above float64) {
	below, above = math.Inf(-1), math.Inf(1)
	for _, pt := range grid {
		if pt.Size <= size {
			below = pt.Value
		}
		if pt.Size >= size && math.IsInf(above, 1) {
			above = pt.Value
		}
	}
	return below, above
}

func prepareReport(e *env) *body {
	iters := e.n(60)
	rng := rand.New(rand.NewSource(e.seed))
	offGrid := make([]int, 16)
	for i := range offGrid {
		offGrid[i] = 1 + rng.Intn(1984)
	}
	sh := shape{"pingpong-2", 2, bestRead}
	once := func(r *rep) {
		var grid []experiments.Point // the best-read latencies of Fig. 10, by size
		var st parsweep.Stats
		cfg := experiments.DefaultConfig().WithIters(iters)
		cfg.Workers = e.workers
		cfg.Stats = &st

		t0 := now()
		render := func(res *experiments.Result) {
			r.note("%s", res.Render())
			if res.ID != "fig10a-latency" && res.ID != "fig10b-latency" {
				return
			}
			for _, s := range res.Series {
				for _, pt := range s.Points {
					r.sim += simtime.Micros(pt.Value)
				}
				if s.Name == "PTL/Elan4-RDMA-Read" {
					grid = append(grid, s.Points...)
				}
			}
		}
		// experiments.All, figure by figure so that each has a span.
		for _, fig := range []struct {
			name string
			run  func() *experiments.Result
		}{
			{"fig7a", func() *experiments.Result { return experiments.Fig7(cfg, experiments.Fig7SmallSizes, "a") }},
			{"fig7b", func() *experiments.Result { return experiments.Fig7(cfg, experiments.Fig7LargeSizes, "b") }},
			{"fig8", func() *experiments.Result { return experiments.Fig8(cfg, experiments.Fig8Sizes) }},
			{"fig9", func() *experiments.Result { return experiments.Fig9(cfg, experiments.Fig9Sizes) }},
			{"table1", func() *experiments.Result { return experiments.Table1(cfg) }},
			{"fig10a", func() *experiments.Result {
				return experiments.Fig10(cfg, experiments.Fig10SmallSizes, "a-latency", false)
			}},
			{"fig10b", func() *experiments.Result {
				return experiments.Fig10(cfg, experiments.Fig10LargeSizes, "b-latency", false)
			}},
			{"fig10c", func() *experiments.Result {
				return experiments.Fig10(cfg, experiments.Fig10SmallSizes, "c-bandwidth", true)
			}},
			{"fig10d", func() *experiments.Result {
				return experiments.Fig10(cfg, experiments.Fig10LargeSizes, "d-bandwidth", true)
			}},
		} {
			r.post(fig.name, nil, func() { render(fig.run()) })
		}
		var claims []experiments.Claim
		r.post("claims", nil, func() { claims = experiments.Claims(cfg) })
		r.post("overlap", nil, func() {
			figs := experiments.OverlapFigures(cfg)
			claims = append(claims, experiments.OverlapClaims(figs)...)
			for i := range figs {
				render(&figs[i])
			}
		})
		// The figures sample fixed grids. The seed adds eager sizes off the
		// grid, through the same engine; each must land between its grid
		// neighbours of Fig. 10's best-read series.
		r.post("seeded sizes", nil, func() {
			lats, sst := parsweep.Run(cfg.Workers, len(offGrid), func(_ *parsweep.Ctx, i int) float64 {
				return experiments.OpenMPIPingPong(bestRead(), offGrid[i], iters)
			})
			st.Merge(sst)
			for i, lat := range lats {
				r.ops++
				r.sim += simtime.Micros(lat)
				r.note("%d %.6f\n", offGrid[i], lat)
				if below, above := bracket(grid, offGrid[i]); !(below <= lat && lat <= above) {
					r.failed++
				}
			}
		})
		for _, c := range claims {
			r.ops++
			r.note("%s|%s|%v\n", c.ID, c.Measured, c.Pass)
			if c.Pass {
				r.n.claimsPassed++
			} else {
				r.failed++
			}
		}
		tot := st.Totals()
		r.n.events += tot.SimEvents
		r.n.poolGets += tot.PoolGets
		r.n.poolHits += tot.PoolHits
		r.n.sweepJobs += st.Jobs()
		r.n.sweepBusy += time.Duration(st.WallNS())
		r.n.sweepElapsed += now().Sub(t0)
		r.n.runT += now().Sub(t0)
		r.note("events=%d jobs=%d\n", tot.SimEvents, st.Jobs())
	}
	// The report's simulations are built inside package experiments, where
	// the benchmark cannot hand them a tracer. Its traced repetition is the
	// ladder sim_us is read from — the best-read series of Fig. 10 — through
	// the package's own instrumented harness, against the same ladder
	// through the plain one.
	ladder := append(append([]int(nil), experiments.Fig10SmallSizes...), experiments.Fig10LargeSizes...)
	ladderIters := e.n(20)
	climb := func(r *rep, rung func(size int) float64) {
		r.post("fig10 ladder", &r.n.runT, func() {
			for _, size := range ladder {
				lat := rung(size)
				r.ops++
				r.sim += simtime.Micros(lat)
				r.note("%d %.6f\n", size, lat)
			}
		})
	}
	return &body{
		rep: once,
		// Every simulation of the report brings its own cluster up inside
		// wall_s; setup_s samples the shape most of them build.
		setupOnly: func(r *rep) { r.run(sh, idle) },
		plain: func(r *rep) {
			climb(r, func(size int) float64 { return experiments.OpenMPIPingPong(bestRead(), size, ladderIters) })
		},
		traced: func(r *rep) {
			climb(r, func(size int) float64 {
				o := experiments.ObservedBestRead(size, ladderIters, experiments.Warmup, 0)
				r.streams = append(r.streams, o.Recorder.Events())
				return o.LatencyUS
			})
		},
	}
}
