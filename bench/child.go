package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// record is what one repetition reports to the run that started it.
type record struct {
	WallS   float64   // body plus post-processing, as the host clock read it
	NetS    float64   // WallS net of stolen time: what wall_s is the median of
	RunS    float64   // the bodies alone
	SetupS  []float64 // the repetition's own bring-up, then set-up-only samples
	AllocMB float64
	RSSMB   float64 // high-water mark when the repetition ended, before the set-up-only samples
	SimPS   int64   // simulated picoseconds over the bodies
	Events  int64   // kernel events executed
	Digest  string
	Ops     int64
	Failed  int64
	// StolenS is how long the hypervisor ran something else on this
	// machine's CPUs during the repetition, set-up included.
	StolenS float64
	// Problems are consistency violations found inside the repetition.
	Problems []string
	// Layers are the per-layer values this kind of repetition measures.
	Layers layerValues
	Spans  []span
	// Started and Elapsed are filled in by the run, on its own clock.
	Started, Elapsed time.Duration
}

// setupSamples bounds the set-up-only bring-ups one repetition adds to its
// own: a 2-rank cluster comes up in well under a millisecond, so setup_s is
// a median over many; a 1024-rank one takes a large part of a second, so
// the time budget stops it after one or two.
const (
	setupSamples = 40
	setupBudget  = 400 * time.Millisecond
)

// timedRep runs fn as one repetition, bracketed by a collection and the
// allocator's counters.
func timedRep(e *env, fn func(*rep), traced bool) *rep {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := newRep(e, traced)
	stolen := stolenSeconds()
	sp := e.spans.open("rep")
	fn(r)
	e.spans.close(sp)
	r.stolen = stolenSeconds() - stolen
	runtime.ReadMemStats(&m1)
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return r
}

// stealCost is how much wall time a second of steal costs a repetition.
// /proc/stat sums steal over the vCPUs, so a process that is taken off all
// of them at once loses 1/NumCPU of it, half on the reference box; the
// measured cost is higher because a vCPU comes back with cold caches and
// its peers have been spinning on the locks it held. Fitted on the 53
// repetitions of five workloads that ran through bursts stealing 10–90 % of
// the machine while the baseline was taken: medians 0.52–0.68 by workload.
const stealCost = 0.6

// net is the repetition's wall time net of what stolen time cost it: the
// share of the repetition's steal that fell on the wall part, times
// stealCost. Undisturbed, it is the wall time less a percent or so; in a
// burst that doubles the wall time it is within a sixth of the undisturbed
// value.
func (r *rep) net() time.Duration {
	if r.setup+r.wall == 0 {
		return 0
	}
	onWall := r.stolen * float64(r.wall) / float64(r.setup+r.wall)
	return r.wall - time.Duration(stealCost*onWall*float64(time.Second))
}

// runChild runs one repetition of the given kind in this process:
//
//	rep      the workload, untraced: end-to-end numbers, counters, stages
//	plain    the workload's comparison variant (see body.plain)
//	traced   the workload with the program's Tracer and Metrics hooks on
//	profile  the workload, untraced, under runtime/pprof
//	probes   the layer probes; no workload
func runChild(kind string, w *workload, e *env) (*record, error) {
	sp := e.spans.open(kind + " " + w.name)
	rec := &record{Layers: layerValues{}}
	var r *rep
	var b *body
	if kind != "probes" {
		b = w.prepare(e)
	}
	switch kind {
	case "rep":
		r = timedRep(e, b.rep, false)
		rec.RSSMB = peakRSSMB()
		if r.setup > 0 { // report builds its clusters inside package experiments
			rec.SetupS = append(rec.SetupS, r.setup.Seconds())
		}
		var extra time.Duration
		for n := 0; n < e.n(setupSamples) && extra < setupBudget; n++ {
			s := newRep(e, false)
			b.setupOnly(s)
			rec.SetupS = append(rec.SetupS, s.setup.Seconds())
			extra += s.setup + s.wall
		}
		r.n.layers(rec.Layers, r)
	case "plain":
		if b.plain == nil {
			return nil, fmt.Errorf("workload %s has no plain variant", w.name)
		}
		r = timedRep(e, b.plain, false)
	case "traced":
		fn := b.rep
		if b.traced != nil {
			fn = b.traced
		}
		r = timedRep(e, fn, true)
		rec.Problems = append(rec.Problems, traceLayers(rec.Layers, r)...)
	case "profile":
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		r = timedRep(e, b.rep, false)
		pprof.StopCPUProfile()
		if err := hostShares(rec.Layers, prof.Bytes()); err != nil {
			return nil, err
		}
	case "probes":
		runProbes(rec.Layers, e)
	default:
		return nil, fmt.Errorf("unknown repetition kind %q", kind)
	}
	e.spans.close(sp)
	if r != nil {
		rec.WallS, rec.NetS, rec.StolenS = r.wall.Seconds(), r.net().Seconds(), r.stolen
		rec.RunS, rec.AllocMB = r.n.runT.Seconds(), r.allocMB
		rec.SimPS, rec.Events, rec.Digest = int64(r.sim), r.n.events, r.sum()
		rec.Ops, rec.Failed = r.ops, r.failed
	}
	rec.Spans = e.spans.spans
	return rec, nil
}

// stolenSeconds is the machine's cumulative steal time: how long its
// virtual CPUs were runnable while the hypervisor ran something else. On a
// shared host it comes in bursts, a minute long and a few every hour, that
// double a repetition's wall time. 0 where the kernel does not report it.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseFloat(f[8], 64)
		return ticks / 100 // USER_HZ is 100 on every Linux the toolchain targets
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb * 1024 / 1e6
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys-m.HeapReleased) / 1e6
}
