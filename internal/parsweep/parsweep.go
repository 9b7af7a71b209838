// Package parsweep is a deterministic parallel job engine for fanning
// independent simulations out over a bounded worker pool. The figure
// sweeps, claim checks and benchmark drivers enumerate every (series,
// size) measurement as a closed-over job; parsweep runs them on up to
// Workers goroutines and delivers the results in submission order, so
// rendered figures, CSVs and the replication report are byte-identical
// to a sequential run at any parallelism.
//
// Determinism contract: each job must be a self-contained simulation —
// it may only touch state it creates (its own simtime kernel, fabric,
// pools, stacks). Job i writes its result into slot i and nothing else;
// the dispatch order across workers is scheduler-dependent, but the
// output vector, and every aggregate counter summed from job-reported
// metrics, is a pure function of the job list. Only wall-clock numbers
// (per-worker WallNS) vary run to run.
package parsweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is what one job reports about the simulation it ran: kernel
// event count and the buffer-pool effectiveness counters aggregated
// across the simulated cluster's components. Reused is 1 for a job that
// ran nothing because an earlier run of the same simulation answered it;
// the job still reports that run's counters.
type Metrics struct {
	SimEvents int64
	PoolGets  int64
	PoolHits  int64
	PoolPuts  int64
	Reused    int64
}

// add accumulates o into m.
func (m *Metrics) add(o Metrics) {
	m.SimEvents += o.SimEvents
	m.PoolGets += o.PoolGets
	m.PoolHits += o.PoolHits
	m.PoolPuts += o.PoolPuts
	m.Reused += o.Reused
}

// Ctx is the per-worker job context. It is owned by exactly one worker
// goroutine, so its methods take no locks.
type Ctx struct {
	w *WorkerStats
}

// Report accumulates job-reported metrics into the owning worker's stats.
func (c *Ctx) Report(m Metrics) {
	if c == nil || c.w == nil {
		return
	}
	c.w.Metrics.add(m)
}

// WorkerStats is one worker's share of a run.
type WorkerStats struct {
	Jobs    int64
	WallNS  int64
	Metrics Metrics
}

// Stats describes a run (or several merged runs) of the engine.
type Stats struct {
	// Workers holds per-worker breakdowns, indexed by worker id. The
	// split across workers depends on scheduling; the totals do not.
	Workers []WorkerStats
	// Runs counts engine invocations merged into this Stats.
	Runs int64
}

// Jobs returns the total job count across workers.
func (s *Stats) Jobs() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].Jobs
	}
	return n
}

// Totals returns the metrics summed across workers.
func (s *Stats) Totals() Metrics {
	var m Metrics
	for i := range s.Workers {
		m.add(s.Workers[i].Metrics)
	}
	return m
}

// WallNS returns the summed per-worker busy time (not elapsed time: with
// W workers this can approach W times the elapsed wall clock).
func (s *Stats) WallNS() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].WallNS
	}
	return n
}

// PoolHitRate returns the aggregated buffer-pool hit rate across all
// workers' jobs, or 0 when no Gets were reported.
func (s *Stats) PoolHitRate() float64 {
	m := s.Totals()
	if m.PoolGets == 0 {
		return 0
	}
	return float64(m.PoolHits) / float64(m.PoolGets)
}

// Merge folds another run's stats into s, aligning workers by id.
func (s *Stats) Merge(o Stats) {
	for len(s.Workers) < len(o.Workers) {
		s.Workers = append(s.Workers, WorkerStats{})
	}
	for i := range o.Workers {
		s.Workers[i].Jobs += o.Workers[i].Jobs
		s.Workers[i].WallNS += o.Workers[i].WallNS
		s.Workers[i].Metrics.add(o.Workers[i].Metrics)
	}
	s.Runs += o.Runs
}

// String renders a one-line-per-worker summary plus totals.
func (s *Stats) String() string {
	m := s.Totals()
	out := fmt.Sprintf("sweep engine: %d runs, %d jobs (%d reused), %d workers, %d sim-events, %.1f ms busy, pool hit-rate %.1f%%\n",
		s.Runs, s.Jobs(), m.Reused, len(s.Workers), m.SimEvents,
		float64(s.WallNS())/1e6, 100*s.PoolHitRate())
	for i, w := range s.Workers {
		out += fmt.Sprintf("  worker %d: %d jobs, %d sim-events, %.1f ms\n",
			i, w.Jobs, w.Metrics.SimEvents, float64(w.WallNS)/1e6)
	}
	return out
}

// Resolve maps a workers request to the pool size actually used: values
// below 1 mean "one worker per core" (GOMAXPROCS).
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes fn(ctx, i) for every i in [0, n) across min(Resolve(workers), n)
// worker goroutines and returns the results in index order plus the
// run's stats. Jobs are claimed from a shared counter, so long jobs do
// not serialize behind a static partition. A panicking job stops the
// run and the panic is re-raised on the caller's goroutine.
func Run[T any](workers, n int, fn func(c *Ctx, i int) T) ([]T, Stats) {
	out := make([]T, n)
	w := Resolve(workers)
	if w > n {
		w = n
	}
	st := Stats{Runs: 1}
	if n == 0 {
		return out, st
	}
	st.Workers = make([]WorkerStats, w)
	if w == 1 {
		// Inline fast path: no goroutines, no atomics — the -j 1 run is
		// exactly the sequential loop it replaces.
		ctx := &Ctx{w: &st.Workers[0]}
		start := time.Now() //lint:allow detclock worker wall-time stats are wall-clock by definition
		for i := 0; i < n; i++ {
			out[i] = fn(ctx, i)
			st.Workers[0].Jobs++
		}
		//lint:allow detclock worker wall-time stats are wall-clock by definition
		st.Workers[0].WallNS = time.Since(start).Nanoseconds()
		return out, st
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make(chan any, w)
	for wid := 0; wid < w; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			ws := &st.Workers[wid]
			ctx := &Ctx{w: ws}
			start := time.Now() //lint:allow detclock worker wall-time stats are wall-clock by definition
			defer func() {
				//lint:allow detclock worker wall-time stats are wall-clock by definition
				ws.WallNS = time.Since(start).Nanoseconds()
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(ctx, i)
				ws.Jobs++
			}
		}(wid)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
	return out, st
}

// Map is Run for jobs with no metrics to report and no caller interest
// in stats: it returns only the in-order results.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out, _ := Run(workers, n, func(_ *Ctx, i int) T { return fn(i) })
	return out
}
