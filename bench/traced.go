package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
)

// traceLayers analyzes a traced repetition's event stream with the
// program's own analyzers: event count, obs.Analyze's phases as mean
// simulated µs per message, obs.AnalyzeWaits's wait kinds as total
// simulated µs, and the Fig. 9 layer split at 4 bytes. It returns the
// consistency violations it finds: the phases must sum to the latency.
func traceLayers(v layerValues, r *rep) (problems []string) {
	var events, messages int
	var latency float64
	phase := map[string]float64{}
	var waits [4]float64
	sp := r.e.spans.open("obs.Analyze and obs.AnalyzeWaits, traced")
	for _, stream := range r.streams {
		events += len(stream)
		for _, m := range obs.Analyze(stream).Messages {
			messages++
			latency += m.Latency().Micros()
			for _, ph := range m.Phases {
				phase[ph.Name] += ph.Dur.Micros()
			}
		}
		for _, w := range obs.AnalyzeWaits(stream).Waits {
			if int(w.Kind) < len(waits) {
				waits[w.Kind] += w.Dur.Micros()
			}
		}
	}
	r.e.spans.close(sp)
	v.set("trace.events", float64(events))
	for k, name := range waitNames {
		v.set("sim.wait."+name+"_us", waits[k])
	}
	if n := float64(messages); n > 0 {
		var sum float64
		for _, name := range phaseNames {
			v.set("sim.phase."+name+"_us", phase[name]/n)
			sum += phase[name] / n
			delete(phase, name)
		}
		v.set("sim.phase.sum_us", sum)
		if math.Abs(sum-latency/n) > 1e-6*math.Max(1, latency/n) {
			problems = append(problems, fmt.Sprintf("phases sum to %.6f us per message, mean latency is %.6f us", sum, latency/n))
		}
		if len(phase) > 0 {
			problems = append(problems, fmt.Sprintf("obs.Analyze reported %d phases the benchmark does not know", len(phase)))
		}
	}

	sp = r.e.spans.open("fig9 at 4 B")
	const iters = 100
	total, pmlCost := experiments.OpenMPILayered(bestRead(), 4, iters)
	v.set("sim.fig9.qdma_us", experiments.QDMAPingPong(4, iters))
	v.set("sim.fig9.ptl_us", total-pmlCost)
	v.set("sim.fig9.pml_us", pmlCost)
	r.e.spans.close(sp)
	return problems
}

// shareGroup names the group a CPU sample's leaf function belongs to.
func shareGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "qsmpi/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "simtime", "fabric", "elan4", "pml", "mpi", "cluster", "datatype", "bufpool", "trace", "obs":
			return pkg
		case "libelan":
			return "elan4"
		case "ptl", "ptlelan4":
			return "ptlelan4"
		}
		return "other"
	}
	if strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "sync/atomic.") || strings.HasPrefix(fn, "internal/runtime/atomic.") {
		return "rt_sched"
	}
	name, ok := strings.CutPrefix(fn, "runtime.")
	switch {
	case ok:
	case !strings.ContainsAny(fn, "./"): // the runtime's assembly: gogo, memeqbody
		name = fn
	case strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "rt_sched"
	default:
		return "other"
	}
	name = strings.TrimLeft(name, "(*")
	for _, g := range runtimeGroups {
		for _, p := range g.prefixes {
			if strings.HasPrefix(name, p) {
				return g.group
			}
		}
	}
	return "other"
}

// runtimeGroups attributes runtime functions by the families their names
// fall into, receiver punctuation stripped; the first match wins, so the
// collector's and the scheduler's names go before the allocator's broad
// ones (mspan, sys). A runtime function in none of the families — maps,
// hashing, interface tables — is "other".
var runtimeGroups = []struct {
	group    string
	prefixes []string
}{
	{"rt_gc", []string{"gc", "scan", "mark", "sweep", "bgsweep", "bgscavenge", "scav", "grey", "wbBuf", "findObject", "spanOf", "spanSet",
		"typePointers", "heapBits", "mspan).heapBits", "mspan).typePointers", "lfstack", "unwinder", "pcvalue", "findfunc", "funcspdelta",
		"step", "bulkBarrier", "forEachG", "forEachP", "stopTheWorld", "startTheWorld", "activeSweep", "limiterEvent", "finishsweep",
		"deductSweepCredit"}},
	{"rt_sched", []string{"chan", "send", "recv", "hchan", "waitq", "sudog", "acquireSudog", "releaseSudog", "select", "sellock", "selunlock",
		"gopark", "goready", "ready", "park", "mcall", "gogo", "gosave", "schedule", "findRunnable", "execute", "runq", "globrunq", "casg", "casG",
		"guintptr", "wakep", "startm", "stopm", "handoffp", "pidle", "mPark", "note", "futex", "lock", "unlock", "mLockProfile", "mutex", "key32",
		"sema", "dropg", "goexit", "gdestroy", "gfget", "gfput", "newproc", "malg", "systemstack", "morestack", "newstack", "copystack", "stack",
		"osyield", "usleep", "procyield", "nanotime", "cputicks", "timer", "checkTimers", "stealWork", "resetspinning", "injectglist", "netpoll",
		"epoll", "sched", "gQueue", "gList", "asyncPreempt", "preempt", "sig", "tgkill", "mstart", "newm", "clone", "retake", "sysmon",
		"entersyscall", "exitsyscall", "reentersyscall", "traceAcquire", "traceLocker", "Gosched", "gosched", "goyield", "gopreempt",
		"acquirep", "releasep", "wirep"}},
	{"rt_mem", []string{"malloc", "memmove", "memclr", "typedmemmove", "typedslicecopy", "growslice", "makeslice", "newobject", "newarray",
		"nextFree", "mcache", "mcentral", "mheap", "mspan", "mSpanStateBox", "pageAlloc", "pageCache", "pageIndexOf", "chunkIdx", "arenaIndex",
		"newArena", "fixalloc", "persistentalloc", "heapSetType", "sys", "mmap", "munmap", "madvise", "duffcopy", "duffzero", "acquirem",
		"releasem", "concatstring", "slicebytetostring", "stringtoslicebyte", "rawstring", "rawbyteslice", "convT", "roundupsize", "divRoundUp",
		"publicationBarrier", "profilealloc", "deductAssistCredit"}},
}

// hostShares attributes a CPU profile's flat samples to groups, as shares
// of all samples, and prints the heaviest leaf functions.
func hostShares(v layerValues, profile []byte) error {
	flat, err := flatSamples(profile)
	if err != nil {
		return err
	}
	var total float64
	group := map[string]float64{}
	names := make([]string, 0, len(flat))
	for fn, n := range flat {
		total += float64(n)
		group[shareGroup(fn)] += float64(n)
		names = append(names, fn)
	}
	if total == 0 {
		// Too short a repetition to be sampled (only at a tiny -scale):
		// nothing can be attributed, and the shares must still sum to 1.
		group["other"], total = 1, 1
	}
	for _, s := range shareNames {
		v.set("host.share."+s, group[s]/total)
	}
	sort.Slice(names, func(i, j int) bool {
		if flat[names[i]] != flat[names[j]] {
			return flat[names[i]] > flat[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Printf("heaviest leaf functions of %d CPU samples:\n", int64(total))
	for _, fn := range names[:min(len(names), 12)] {
		fmt.Printf("  %5.1f%%  %-9s %s\n", 100*float64(flat[fn])/total, shareGroup(fn), fn)
	}
	return nil
}

// traceMeasure is the per-layer run. Nothing here feeds an end-to-end
// number: an untraced repetition gives the counters and stage times (and
// the base the traced one is compared to), then the workload's comparison
// variant if it has one, one traced repetition, one under the CPU profiler,
// and the probes. The benchmark's own spans are written out at the end.
func traceMeasure(w *workload, spawn spawner, e *env, outDir string) (*result, error) {
	top := e.spans.open("workload " + w.name)
	res := &result{workload: w.name, layers: layerValues{}}
	child := func(kind string) (*record, error) {
		sp := e.spans.open("process " + kind)
		rec, err := spawn(kind)
		e.spans.close(sp)
		if err == nil {
			e.spans.adopt(sp, rec.Started, rec.Spans)
			res.problems = append(res.problems, rec.Problems...)
			fmt.Printf("%s repetition took %.2f s, %.2f s stolen\n", kind, rec.Elapsed.Seconds(), rec.StolenS)
		}
		return rec, err
	}

	rep, err := child("rep")
	if err != nil {
		return nil, err
	}
	res.digest = rep.Digest
	res.fold(rep, rep)
	for name, x := range rep.Layers {
		res.layers.set(name, x)
	}
	var plain *record
	if w.plain != "" {
		var err error
		if plain, err = child("plain"); err != nil {
			return nil, err
		}
	}
	for _, kind := range []string{"traced", "profile", "probes"} {
		rec, err := child(kind)
		if err != nil {
			return nil, err
		}
		for name, x := range rec.Layers {
			res.layers.set(name, x)
		}
		switch {
		case kind == "traced" && w.plain == "untraced":
			res.layers.set("trace.overhead_x", ratio(rec.WallS, plain.WallS))
		case kind == "traced":
			res.layers.set("trace.overhead_x", ratio(rec.WallS, rep.WallS))
			if diff := agree(rep, rec); diff != "" {
				res.problems = append(res.problems, "tracing perturbed the simulation: "+diff)
			}
		case kind == "profile":
			res.fold(rep, rec)
		}
	}
	switch w.name {
	case "coll-1024-sh2":
		res.layers.set("simtime.sh2_speedup_x", ratio(plain.RunS, rep.RunS))
	case "observed-16":
		res.layers.set("obs.sampler_overhead_x", ratio(rep.RunS, plain.RunS))
	}
	var shares float64
	for _, s := range shareNames {
		shares += res.layers["host.share."+s]
	}
	if math.Abs(shares-1) > 0.01 {
		res.problems = append(res.problems, fmt.Sprintf("host.share.* sums to %.4f, not 1", shares))
	}
	e.spans.close(top)
	if err := e.spans.write(filepath.Join(outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}
	return res, nil
}
