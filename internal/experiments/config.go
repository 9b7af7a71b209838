package experiments

import "qsmpi/internal/parsweep"

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
}

// DefaultConfig mirrors the historical defaults: 100 timed iterations,
// 10 warmup rounds, one worker per core.
func DefaultConfig() Config {
	return Config{Iters: 100, Warmup: Warmup}
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

// pointFn measures one sample at x — a message size, a node count — and
// reports the simulation's engine metrics alongside the value.
type pointFn func(x int) (float64, parsweep.Metrics)

// seriesSpec declares one curve of a figure: its label, x values, and
// the measurement closure each point runs as an independent job.
type seriesSpec struct {
	name    string
	sizes   []int
	measure pointFn
}

// sweep runs every (series, size) point of the specs through the
// parallel engine and assembles the curves. The points are flattened
// into one job list in (series, size) order and each job writes only its
// own slot, so the assembled output is byte-identical to sequential
// nested loops at any worker count.
func (c Config) sweep(specs ...seriesSpec) []Series {
	var of, xs []int // per flattened point: its series, its x
	out := make([]Series, len(specs))
	for si, sp := range specs {
		out[si].Name = sp.name
		for _, x := range sp.sizes {
			of, xs = append(of, si), append(xs, x)
		}
	}
	vals := fanOut(c, len(xs), func(j int) (float64, parsweep.Metrics) { return specs[of[j]].measure(xs[j]) })
	for j, v := range vals {
		out[of[j]].Points = append(out[of[j]].Points, Point{Size: xs[j], Value: v})
	}
	return out
}

// pair splits the two-valued rows one simulation per x yields into two
// curves.
func pair(xs []int, rows [][2]float64, first, second string) []Series {
	out := []Series{{Name: first}, {Name: second}}
	for i, x := range xs {
		for k := range out {
			out[k].Points = append(out[k].Points, Point{Size: x, Value: rows[i][k]})
		}
	}
	return out
}
