package experiments

import (
	"sync"

	"qsmpi/internal/cluster"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// Config carries every sweep parameter that used to live in mutable
// package globals. A Config is passed explicitly through the figure,
// table, claim and ablation generators so that two sweeps can run
// concurrently without sharing any state: the old package-level Iters
// variable was a data race the moment two kernels ran at once.
type Config struct {
	// Iters is the timing iteration count per measured point.
	Iters int
	// Warmup is the untimed iteration count before measurement starts.
	Warmup int
	// Workers bounds the parallel sweep engine's pool; values below 1
	// mean one worker per core (GOMAXPROCS). Results are byte-identical
	// at any setting — see internal/parsweep.
	Workers int
	// Stats, when non-nil, accumulates sweep-engine counters (per-worker
	// jobs, sim-events, wall time, pool hit-rates) across every sweep
	// run under this config.
	Stats *parsweep.Stats
	// Shards is the worker-shard count each measurement cluster runs with
	// (see cluster.Spec.Shards); 0 or 1 adds no worker and the run stays
	// sequential. Every value ≥ 2 gives the same output. It equals the
	// sequential output where no two sources claim a link at one instant:
	// every two-rank point, the overlap family and the collectives to 256
	// ranks, but not the host-tree barrier from 1024 ranks up nor the NIC
	// barrier at 4096 (DESIGN.md §7.2 has the measured pairs).
	Shards int

	// memo answers a two-rank ping-pong this config, or a copy of it, has
	// run before. DefaultConfig makes one per call; a Config literal has
	// none and runs every request.
	memo *memo
}

// DefaultConfig mirrors the historical defaults: 100 timed iterations,
// 10 warmup rounds, one worker per core. Its copies share one memo, so each
// distinct two-rank ping-pong of their figures and claims is simulated once.
func DefaultConfig() Config {
	return Config{Iters: 100, Warmup: Warmup, memo: &memo{runs: map[simKey]*memoRun{}}}
}

// WithIters returns a copy of c with the iteration count replaced.
func (c Config) WithIters(iters int) Config {
	c.Iters = iters
	return c
}

// itersFor shrinks iteration counts for big-message sweeps to keep
// event counts reasonable.
func (c Config) itersFor(size int) int {
	switch {
	case size >= 1<<19:
		return 20
	case size >= 1<<16:
		return 40
	default:
		return c.Iters
	}
}

// fanOut runs n independent measurements through the parallel engine and
// returns their values in job order, whatever a measurement's value is: one
// number, or the two curves one simulation yields. Each job reports its
// simulation's engine metrics; the run's counters land in c.Stats.
func fanOut[T any](c Config, n int, job func(i int) (T, parsweep.Metrics)) []T {
	vals, st := parsweep.Run(c.Workers, n, func(ctx *parsweep.Ctx, i int) T {
		v, m := job(i)
		ctx.Report(m)
		return v
	})
	if c.Stats != nil {
		c.Stats.Merge(st)
	}
	return vals
}

// curve is one simulation per x and the series it yields: usually one, two
// where one simulation measures two things (Fig. 9's PTL and PML costs, the
// queue-depth ablation's retries and drain time).
type curve struct {
	names []string
	run   func(x int) ([]float64, parsweep.Metrics)
}

// line is the curve of one series: fn measures the sample at x — a message
// size, a node count — and reports the simulation's engine metrics.
func line(name string, fn func(x int) (float64, parsweep.Metrics)) curve {
	return curve{[]string{name}, func(x int) ([]float64, parsweep.Metrics) {
		v, m := fn(x)
		return []float64{v}, m
	}}
}

// plot is a figure before it is measured: its ID and labels, one x list
// and the curves swept over it.
type plot struct {
	id, title, xlabel, ylabel string
	xs                        []int
	curves                    []curve
}

// sweep measures every (curve, x) point of p through the parallel engine
// and assembles the series. The points are one job list in (curve, x)
// order and each job writes only its own slot, so the result is
// byte-identical to sequential nested loops at any worker count.
func (c Config) sweep(p plot) *Result {
	n := len(p.xs)
	rows := fanOut(c, len(p.curves)*n, func(j int) ([]float64, parsweep.Metrics) { return p.curves[j/n].run(p.xs[j%n]) })
	r := &Result{ID: p.id, Title: p.title, XLabel: p.xlabel, YLabel: p.ylabel}
	for ci, cv := range p.curves {
		for k, name := range cv.names {
			s := Series{Name: name}
			for i, x := range p.xs {
				s.Points = append(s.Points, Point{Size: x, Value: rows[ci*n+i][k]})
			}
			r.Series = append(r.Series, s)
		}
	}
	return r
}

// pingKind names a two-rank ping-pong harness.
type pingKind uint8

const (
	openMPIPing pingKind = iota
	tportPing
	qdmaPing
)

// simKey is every input of a two-rank ping-pong harness.
type simKey struct {
	kind     pingKind
	opts     ptlelan4.Options
	dtp      bool
	progress pml.ProgressMode
	size     int
	iters    int
	warmup   int
	shards   int
}

// pingKey is the key of a ping-pong of kind at size and iters under c.
func (c Config) pingKey(kind pingKind, size, iters int) simKey {
	return simKey{kind: kind, size: size, iters: iters, warmup: c.Warmup, shards: c.Shards}
}

// specKey adds the Open MPI spec's inputs to k. It reports false for a spec
// with a field set that the key does not hold: such a run is never memoized.
func specKey(k simKey, spec cluster.Spec) (simKey, bool) {
	if spec.Elan == nil || spec.Model != nil || spec.Nodes != 0 || spec.ElanRails != 0 || spec.TCP != nil ||
		spec.Tracer != nil || spec.Metrics != nil || spec.Watchdog != nil || spec.Sampler != nil ||
		spec.HWColl || spec.Peers != nil {
		return k, false
	}
	k.opts, k.dtp, k.progress, k.shards = *spec.Elan, spec.DTP, spec.Progress, spec.Shards
	return k, true
}

// memo holds the ping-pongs run under one DefaultConfig, by key.
type memo struct {
	mu   sync.Mutex
	runs map[simKey]*memoRun
}

// memoRun is one simulation of a key: done closes once its values, or the
// panic it raised, are in.
type memoRun struct {
	done     chan struct{}
	lat, pml float64
	m        parsweep.Metrics
	panicked any
}

// simulate returns run's half round trip, PML-layer cost and metrics. With
// a memo and a key it can hold, run goes once per key: a later request, or
// one that arrives while it runs and waits, gets its values and metrics
// with Reused set. A run that panics is forgotten, so the next request runs
// it again, and its panic is raised in every request that waited on it.
func (c Config) simulate(k simKey, memoize bool, run func() (lat, pmlCost float64, m parsweep.Metrics)) (float64, float64, parsweep.Metrics) {
	if c.memo == nil || !memoize {
		return run()
	}
	c.memo.mu.Lock()
	r, hit := c.memo.runs[k]
	if !hit {
		r = &memoRun{done: make(chan struct{})}
		c.memo.runs[k] = r
	}
	c.memo.mu.Unlock()
	if !hit {
		func() {
			defer close(r.done)
			defer func() {
				if r.panicked = recover(); r.panicked != nil {
					c.memo.mu.Lock()
					delete(c.memo.runs, k)
					c.memo.mu.Unlock()
				}
			}()
			r.lat, r.pml, r.m = run()
		}()
	}
	<-r.done
	if r.panicked != nil {
		panic(r.panicked)
	}
	m := r.m
	if hit {
		m.Reused = 1
	}
	return r.lat, r.pml, m
}
