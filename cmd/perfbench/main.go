// Command perfbench measures the simulator's wall-clock performance — how
// fast the testbed itself runs, as opposed to the simulated latencies the
// figure generators report. For each workload it records the simulated
// time (which optimizations must never change), the wall-clock time, and
// the event throughput, then writes a JSON report.
//
// Usage:
//
//	perfbench                             # run workloads, print a table
//	perfbench -out BENCH_wallclock.json   # also write the JSON report
//	perfbench -reps 5                     # best-of-5 wall times
//	perfbench -before seed.txt -after new.txt -out BENCH_wallclock.json
//	perfbench -j 8                        # sweep-engine workers for -sweeps
//	perfbench -sweeps=false               # skip the parallel-sweep comparison
//	perfbench -baseline old.json -out BENCH_wallclock.json
//	perfbench -shards 4                   # workloads on the sharded kernel
//	perfbench -shardscale=false           # skip the 1/2/4-shard scaling curve
//	perfbench -waitstates=false           # skip the sampler-overhead section
//	perfbench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// The -baseline flag takes a previously written report and records the
// per-workload instrumentation-off overhead against it (the observability
// layer's disabled-path cost: every workload runs with no tracer or
// metrics registry attached).
//
// The -before/-after flags take saved `go test -bench` outputs (the same
// benchmark set run on two trees) and embed per-benchmark wall-clock
// speedups in the report, which is how the fast-path overhaul's ≥1.5×
// target is recorded. The -sweeps comparison runs the figure and claim
// sweeps sequentially and through the parallel sweep engine, verifies the
// outputs are byte-identical, and records the wall-clock speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/experiments"
	"qsmpi/internal/lint"
	lintdriver "qsmpi/internal/lint/driver"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/ptltcp"
	"qsmpi/internal/trace"
)

// workloadResult is one workload's measurement.
type workloadResult struct {
	Name string `json:"name"`
	// SimUS is the workload's simulated-time result (mean latency for the
	// ping-pongs, elapsed virtual time otherwise); it is the invariant —
	// identical before and after any wall-clock optimization.
	SimUS float64 `json:"sim_us"`
	// Events is the number of kernel events one run executes.
	Events int64 `json:"events"`
	// WallMS is the best-of-reps wall-clock time for one run.
	WallMS float64 `json:"wall_ms"`
	// EventsPerSec is Events over the best wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// NSPerEvent is the mean wall cost of one simulator event.
	NSPerEvent float64 `json:"ns_per_event"`
}

// sweepResult records one workload's sequential-vs-parallel sweep
// comparison: the same jobs run at one worker and at `workers` workers,
// with byte-identical output verified before timing is trusted.
type sweepResult struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Jobs      int64   `json:"jobs"`
	SeqWallMS float64 `json:"seq_wall_ms"`
	ParWallMS float64 `json:"par_wall_ms"`
	Speedup   float64 `json:"speedup"`
}

// overheadEntry compares one workload's per-event wall cost against a
// prior report's run of the same workload. It records the observability
// instrumentation's disabled-path overhead: the workloads run with no
// tracer or registry attached, so any ratio above 1.0 is the price of the
// nil checks compiled into the hot paths.
type overheadEntry struct {
	Name       string  `json:"name"`
	BaselineNS float64 `json:"baseline_ns_per_event"`
	CurrentNS  float64 `json:"current_ns_per_event"`
	// Overhead is current/baseline ns-per-event; 1.02 means +2%.
	Overhead float64 `json:"overhead"`
}

// speedupEntry compares one `go test -bench` benchmark across two trees.
type speedupEntry struct {
	Benchmark string  `json:"benchmark"`
	BeforeMS  float64 `json:"before_ms_per_op"`
	AfterMS   float64 `json:"after_ms_per_op"`
	Speedup   float64 `json:"speedup"`
}

// shardScalingEntry is one (workload, shard count) throughput sample of
// the conservative parallel kernel. SimUS and Events are recorded per
// shard count: contention-tie-free workloads reproduce the sequential
// numbers exactly, and any shard count ≥ 2 is self-consistent.
type shardScalingEntry struct {
	Name         string  `json:"name"`
	Shards       int     `json:"shards"`
	SimUS        float64 `json:"sim_us"`
	Events       int64   `json:"events"`
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// collScaleEntry is one collective-scaling sample: the simulated latency
// of one barrier or 8-byte allreduce at a rank count, over the host
// software trees or the NIC combine trees, plus the run's wall-clock
// throughput (the whole measurement cluster, bringup included).
type collScaleEntry struct {
	Op           string  `json:"op"` // "barrier" | "allreduce"
	Ranks        int     `json:"ranks"`
	NIC          bool    `json:"nic"`
	LatUS        float64 `json:"lat_us"`
	Events       int64   `json:"events"`
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type overlapEntry struct {
	Mode         string  `json:"mode"` // "basic" | "interrupt" | "one-thread" | "two-threads"
	Side         string  `json:"side"` // "send" (overlap) | "recv" (availability)
	Size         int     `json:"size"`
	Ratio        float64 `json:"ratio"` // clamp((c + w - o)/c, 0, 1), w = c
	Events       int64   `json:"events"`
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// waitStateResult records the telemetry sampler's wall-clock cost —
// the same seeded workload with and without the sampler attached — and
// the wait-state analyzer's cost over the recorded stream.
type waitStateResult struct {
	SamplerOffWallMS float64 `json:"sampler_off_wall_ms"`
	SamplerOnWallMS  float64 `json:"sampler_on_wall_ms"`
	// SamplerOverhead is on/off wall time; 1.05 means the sampler's tick
	// events and probe reads cost 5% on this workload.
	SamplerOverhead float64 `json:"sampler_overhead"`
	SamplerTicks    uint64  `json:"sampler_ticks"`
	GaugeEvents     int64   `json:"gauge_events"`
	AnalyzerWallMS  float64 `json:"analyzer_wall_ms"`
	AnalyzerWaits   int     `json:"analyzer_waits"`
}

// lintBenchResult is the qsmpilint wall-clock section: the standalone
// driver's full-repo run, serial (the pre-sharding behavior) against the
// GOMAXPROCS-sharded dependency-ordered scheduler. On a single-core box
// the two mostly measure the same thing; the section exists so multi-core
// CI records the sharding win (and any regression) over time.
type lintBenchResult struct {
	Packages     int     `json:"packages"`
	Reps         int     `json:"reps"`
	SerialWallMS float64 `json:"serial_wall_ms"`
	ParWorkers   int     `json:"par_workers"`
	ParWallMS    float64 `json:"par_wall_ms"`
	Speedup      float64 `json:"speedup"`
}

// report is the BENCH_wallclock.json schema.
type report struct {
	Generated  string           `json:"generated"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Reps       int              `json:"reps"`
	Workloads  []workloadResult `json:"workloads"`
	Sweeps     []sweepResult    `json:"sweeps,omitempty"`
	// Shards is the sharded-kernel scaling curve: event throughput of the
	// parallelizable workloads at increasing worker-shard counts. NumCPU
	// qualifies the curve — on a single-core box the sharded runs measure
	// engine overhead, not speedup.
	Shards []shardScalingEntry `json:"shards,omitempty"`
	// CollScale is the collective-offload scaling table: barrier and
	// 8-byte allreduce at increasing rank counts, host software trees
	// against the NIC combine trees.
	CollScale []collScaleEntry `json:"collscale,omitempty"`
	// Overlap is the compute/communication overlap table: sender overlap
	// and receiver progress availability per progress mode and size.
	Overlap []overlapEntry `json:"overlap,omitempty"`
	// WaitStates is the telemetry-sampler overhead and wait-state
	// analyzer cost section.
	WaitStates *waitStateResult `json:"waitstates,omitempty"`
	// Lint is the qsmpilint serial-vs-sharded wall-clock section,
	// written by `perfbench -lintbench` (which patches this field into an
	// existing report without re-running the simulator workloads).
	Lint   *lintBenchResult `json:"lint,omitempty"`
	NumCPU int              `json:"num_cpu,omitempty"`
	// SweepGeomean is the geometric-mean parallel-sweep speedup across
	// the sweep workloads.
	SweepGeomean float64        `json:"sweep_geomean,omitempty"`
	Speedups     []speedupEntry `json:"speedups,omitempty"`
	MinSpeedup   float64        `json:"min_speedup,omitempty"`
	MeanSpeedup  float64        `json:"mean_speedup,omitempty"`
	// Baseline names the prior report -baseline compared against, and
	// ObsOverhead/ObsOverheadGeomean record the per-workload and mean
	// instrumentation-off overhead relative to it.
	Baseline           string          `json:"baseline,omitempty"`
	ObsOverhead        []overheadEntry `json:"obs_overhead,omitempty"`
	ObsOverheadGeomean float64         `json:"obs_overhead_geomean,omitempty"`
}

// measureLintBench times the standalone qsmpilint driver over the full
// repo at par=1 (the pre-sharding serial loader) and par=GOMAXPROCS (the
// dependency-ordered sharded scheduler), best of reps each. Both runs
// include the `go list -export` load — that is what `make lint` pays.
func measureLintBench(reps int) *lintBenchResult {
	l, err := lintdriver.Load(".", "./...")
	if err != nil {
		log.Fatalf("perfbench: lint load: %v", err)
	}
	pkgs := 0
	for _, p := range l.Pkgs {
		if !p.Standard && len(p.GoFiles) > 0 {
			pkgs++
		}
	}

	run := func(par int) float64 {
		best := math.MaxFloat64
		for i := 0; i < reps; i++ {
			start := time.Now() //lint:allow detclock lint benchmarking measures real wall time by design
			findings, err := lintdriver.CheckParallel(".", lint.Analyzers(), par, "./...")
			if err != nil {
				log.Fatalf("perfbench: lint run: %v", err)
			}
			//lint:allow detclock lint benchmarking measures real wall time by design
			if ms := float64(time.Since(start).Nanoseconds()) / 1e6; ms < best {
				best = ms
			}
			if len(findings) > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: lint reported %d findings; timings cover a dirty tree\n", len(findings))
			}
		}
		return best
	}

	workers := runtime.GOMAXPROCS(0)
	res := &lintBenchResult{Packages: pkgs, Reps: reps, ParWorkers: workers}
	res.SerialWallMS = run(1)
	res.ParWallMS = run(workers)
	res.Speedup = res.SerialWallMS / res.ParWallMS
	fmt.Printf("%-22s %8s %12s %12s %10s\n", "lint", "pkgs", "par=1 ms", fmt.Sprintf("par=%d ms", workers), "speedup")
	fmt.Printf("%-22s %8d %12.2f %12.2f %9.2fx\n", "qsmpilint ./...", res.Packages, res.SerialWallMS, res.ParWallMS, res.Speedup)
	return res
}

// patchLintSection updates only the lint section of an existing
// BENCH_wallclock.json (creating a minimal report if the file is absent),
// leaving every simulator measurement untouched.
func patchLintSection(path string, res *lintBenchResult) {
	rep := &report{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, rep); err != nil {
			log.Fatalf("perfbench: %s: %v", path, err)
		}
	} else {
		//lint:allow detclock report timestamp is wall-clock metadata, not simulation state
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
		rep.GoVersion = runtime.Version()
		rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
		rep.NumCPU = runtime.NumCPU()
	}
	rep.Lint = res
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	fmt.Printf("wrote lint section of %s\n", path)
}

// sweepWorkload is one figure/claim sweep run under a worker count; it
// returns its rendered output (for the byte-identical check) and the
// engine stats.
type sweepWorkload struct {
	name string
	run  func(workers int) (string, parsweep.Stats)
}

// sweepWorkloads mirrors the two evaluation drivers: cmd/report's claim
// sweep and the figure set behind cmd/elan4bench + cmd/ompibench.
func sweepWorkloads() []sweepWorkload {
	mkCfg := func(iters, workers int, st *parsweep.Stats) experiments.Config {
		cfg := experiments.DefaultConfig().WithIters(iters)
		cfg.Workers = workers
		cfg.Stats = st
		return cfg
	}
	return []sweepWorkload{
		{"report-claims", func(workers int) (string, parsweep.Stats) {
			var st parsweep.Stats
			var sb strings.Builder
			for _, c := range experiments.Claims(mkCfg(30, workers, &st)) {
				fmt.Fprintf(&sb, "%s|%s|%v\n", c.ID, c.Measured, c.Pass)
			}
			return sb.String(), st
		}},
		{"figures-all", func(workers int) (string, parsweep.Stats) {
			var st parsweep.Stats
			var sb strings.Builder
			for _, r := range experiments.All(mkCfg(20, workers, &st)) {
				sb.WriteString(r.Render())
			}
			return sb.String(), st
		}},
	}
}

// measureSweep times one workload at 1 worker and at `workers` workers
// (best of reps each) and verifies the outputs match byte for byte.
func measureSweep(w sweepWorkload, workers, reps int) sweepResult {
	res := sweepResult{Name: w.name, Workers: workers}
	time1, timeN := time.Duration(1<<63-1), time.Duration(1<<63-1)
	var out1, outN string
	for r := 0; r < reps; r++ {
		start := time.Now() //lint:allow detclock perfbench measures real wall time by design
		seq, st := w.run(1)
		//lint:allow detclock perfbench measures real wall time by design
		if d := time.Since(start); d < time1 {
			time1 = d
		}
		res.Jobs = st.Jobs()
		start = time.Now() //lint:allow detclock perfbench measures real wall time by design
		par, _ := w.run(workers)
		//lint:allow detclock perfbench measures real wall time by design
		if d := time.Since(start); d < timeN {
			timeN = d
		}
		out1, outN = seq, par
		if out1 != outN {
			log.Fatalf("perfbench: %s output differs between -j 1 and -j %d:\n%s\nvs\n%s",
				w.name, workers, out1, outN)
		}
	}
	res.SeqWallMS = float64(time1.Nanoseconds()) / 1e6
	res.ParWallMS = float64(timeN.Nanoseconds()) / 1e6
	res.Speedup = float64(time1.Nanoseconds()) / float64(timeN.Nanoseconds())
	return res
}

// workload is a named simulator run returning its simulated time and
// event count; wall time is measured around it.
type workload struct {
	name string
	run  func() (simUS float64, events int64)
}

func elanSpec(shards int) cluster.Spec {
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	return cluster.Spec{Elan: &o, Progress: pml.Polling, Shards: shards}
}

// clusterRun launches a pattern over a fresh cluster and returns the
// elapsed simulated time and kernel event count.
func clusterRun(spec cluster.Spec, procs int, body func(p *cluster.Proc)) (float64, int64) {
	c := cluster.New(spec, procs)
	c.Launch(body)
	if err := c.Run(); err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	return c.Now().Micros(), c.K.Steps()
}

func workloads(shards int) []workload {
	return []workload{
		{"pingpong-eager-4B", func() (float64, int64) {
			return experiments.OpenMPIPingPongEvents(elanSpec(shards), 4, 2000)
		}},
		{"pingpong-rndv-64KB", func() (float64, int64) {
			return experiments.OpenMPIPingPongEvents(elanSpec(shards), 65536, 300)
		}},
		{"pingpong-tcp-4KB", func() (float64, int64) {
			spec := cluster.Spec{TCP: &ptltcp.Options{}, Progress: pml.Polling, Shards: shards}
			return experiments.OpenMPIPingPongEvents(spec, 4096, 500)
		}},
		{"pingpong-vector-8KB", func() (float64, int64) {
			// Non-contiguous datatype: exercises the pack/unpack staging
			// pools on both sides of every transfer.
			dt := datatype.Vector(512, 16, 32, datatype.Contiguous(1))
			spec := elanSpec(shards)
			spec.DTP = true
			return clusterRun(spec, 2, func(p *cluster.Proc) {
				buf := make([]byte, dt.Extent())
				scratch := make([]byte, dt.Extent())
				for i := 0; i < 300; i++ {
					if p.Rank == 0 {
						p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
						p.Stack.Recv(p.Th, 1, 2, 0, scratch, dt).Wait(p.Th)
					} else {
						p.Stack.Recv(p.Th, 0, 1, 0, scratch, dt).Wait(p.Th)
						p.Stack.Send(p.Th, 0, 2, 0, buf, dt).Wait(p.Th)
					}
				}
			})
		}},
		{"alltoall-8x4KB", func() (float64, int64) {
			dt := datatype.Contiguous(4096)
			return clusterRun(elanSpec(shards), 8, func(p *cluster.Proc) {
				buf := make([]byte, 4096)
				for i := 0; i < 10; i++ {
					var sends []*pml.SendReq
					var recvs []*pml.RecvReq
					for peer := 0; peer < 8; peer++ {
						if peer == p.Rank {
							continue
						}
						recvs = append(recvs, p.Stack.Recv(p.Th, peer, i, 0, make([]byte, 4096), dt))
						sends = append(sends, p.Stack.Send(p.Th, peer, i, 0, buf, dt))
					}
					for _, r := range recvs {
						r.Wait(p.Th)
					}
					for _, s := range sends {
						s.Wait(p.Th)
					}
				}
			})
		}},
	}
}

func measure(w workload, reps int) workloadResult {
	res := workloadResult{Name: w.name}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now() //lint:allow detclock perfbench measures real wall time by design
		simUS, events := w.run()
		elapsed := time.Since(start) //lint:allow detclock perfbench measures real wall time by design
		if r == 0 {
			res.SimUS, res.Events = simUS, events
		} else if simUS != res.SimUS || events != res.Events {
			log.Fatalf("perfbench: %s is nondeterministic: sim %.3fus/%d events vs %.3fus/%d",
				w.name, simUS, events, res.SimUS, res.Events)
		}
		if elapsed < best {
			best = elapsed
		}
	}
	res.WallMS = float64(best.Nanoseconds()) / 1e6
	res.EventsPerSec = float64(res.Events) / best.Seconds()
	res.NSPerEvent = float64(best.Nanoseconds()) / float64(res.Events)
	return res
}

// benchLine matches `go test -bench` result lines, e.g.
// "BenchmarkFig7BasicRDMA-8   2   64538012 ns/op ...".
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// parseBench extracts benchmark-name → ms/op from saved bench output.
// Repeated runs of the same benchmark (interleaved executions or -count)
// keep the minimum, the standard way to reject scheduler noise.
func parseBench(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, m := range benchLine.FindAllStringSubmatch(string(data), -1) {
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q", path, m[0])
		}
		ms := ns / 1e6
		if prev, ok := out[m[1]]; !ok || ms < prev {
			out[m[1]] = ms
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

func speedups(beforePath, afterPath string) ([]speedupEntry, error) {
	before, err := parseBench(beforePath)
	if err != nil {
		return nil, err
	}
	after, err := parseBench(afterPath)
	if err != nil {
		return nil, err
	}
	var out []speedupEntry
	for name, b := range before {
		a, ok := after[name]
		if !ok {
			continue
		}
		out = append(out, speedupEntry{Benchmark: name, BeforeMS: b, AfterMS: a, Speedup: b / a})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no common benchmarks between %s and %s", beforePath, afterPath)
	}
	// Deterministic report order.
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out, nil
}

func main() {
	reps := flag.Int("reps", 3, "wall-time repetitions per workload (best is kept)")
	out := flag.String("out", "", "write the JSON report to this file")
	before := flag.String("before", "", "saved `go test -bench` output from the baseline tree")
	after := flag.String("after", "", "saved `go test -bench` output from the optimized tree")
	workers := flag.Int("j", 0, "sweep-engine workers for -sweeps (0 = one per core)")
	sweeps := flag.Bool("sweeps", true, "measure the sequential-vs-parallel sweep speedup")
	baseline := flag.String("baseline", "", "prior BENCH_wallclock.json: record per-workload instrumentation-off overhead against it")
	shards := flag.Int("shards", 1, "worker shards for the workload runs (conservative parallel kernel; ≤1 = none, the whole run is sequential)")
	shardScale := flag.Bool("shardscale", true, "record the sharded-kernel scaling curve (events/sec at 1/2/4 shards)")
	collScale := flag.Bool("collscale", true, "record the collective-offload table (barrier/allreduce at 64/256/1024 ranks, host vs NIC tree)")
	overlap := flag.Bool("overlap", true, "record the compute/communication overlap table (sender overlap and receiver availability per progress mode)")
	waitstates := flag.Bool("waitstates", true, "record the telemetry-sampler overhead and wait-state analyzer cost")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering every measured run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after all runs) to this file")
	lintbench := flag.Bool("lintbench", false, "measure the qsmpilint serial-vs-sharded wall-clock and patch the lint section of -out (skips every other workload)")
	flag.Parse()

	if *lintbench {
		res := measureLintBench(*reps)
		if *out != "" {
			patchLintSection(*out, res)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Read the baseline up front so -out may safely overwrite the same file.
	var base *report
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		base = &report{}
		if err := json.Unmarshal(data, base); err != nil {
			log.Fatalf("perfbench: %s: %v", *baseline, err)
		}
	}

	rep := report{
		//lint:allow detclock report timestamp is wall-clock metadata, not simulation state
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       *reps,
	}
	fmt.Printf("%-22s %14s %12s %12s %14s %10s\n",
		"workload", "sim-us", "events", "wall-ms", "events/sec", "ns/event")
	for _, w := range workloads(*shards) {
		r := measure(w, *reps)
		rep.Workloads = append(rep.Workloads, r)
		fmt.Printf("%-22s %14.1f %12d %12.2f %14.0f %10.1f\n",
			r.Name, r.SimUS, r.Events, r.WallMS, r.EventsPerSec, r.NSPerEvent)
	}

	if *shardScale {
		fmt.Printf("\n%-22s %8s %14s %12s %12s %14s\n",
			"shard scaling", "shards", "sim-us", "events", "wall-ms", "events/sec")
		for _, n := range []int{1, 2, 4} {
			// The 8-node all-to-all is the parallelizable workload: at 4
			// shards each worker owns two node stacks.
			for _, w := range workloads(n) {
				if w.name != "alltoall-8x4KB" {
					continue
				}
				r := measure(w, *reps)
				e := shardScalingEntry{Name: w.name, Shards: n, SimUS: r.SimUS,
					Events: r.Events, WallMS: r.WallMS, EventsPerSec: r.EventsPerSec}
				rep.Shards = append(rep.Shards, e)
				fmt.Printf("%-22s %8d %14.1f %12d %12.2f %14.0f\n",
					e.Name, e.Shards, e.SimUS, e.Events, e.WallMS, e.EventsPerSec)
			}
		}
	}

	if *collScale {
		fmt.Printf("\n%-22s %8s %14s %12s %12s %14s\n",
			"collective scaling", "ranks", "lat-us", "events", "wall-ms", "events/sec")
		for _, op := range []string{"barrier", "allreduce"} {
			allreduce := op == "allreduce"
			for _, n := range []int{64, 256, 1024} {
				for _, nic := range []bool{false, true} {
					tree := "host"
					if nic {
						tree = "nic"
					}
					n, nic := n, nic
					w := workload{
						name: fmt.Sprintf("%s-%d-%s", op, n, tree),
						run: func() (float64, int64) {
							return experiments.CollectiveEvents(n, nic, allreduce, *shards)
						},
					}
					r := measure(w, *reps)
					e := collScaleEntry{Op: op, Ranks: n, NIC: nic, LatUS: r.SimUS,
						Events: r.Events, WallMS: r.WallMS, EventsPerSec: r.EventsPerSec}
					rep.CollScale = append(rep.CollScale, e)
					fmt.Printf("%-22s %8d %14.2f %12d %12.2f %14.0f\n",
						w.name, e.Ranks, e.LatUS, e.Events, e.WallMS, e.EventsPerSec)
				}
			}
		}
	}

	if *overlap {
		fmt.Printf("\n%-22s %6s %8s %10s %12s %12s %14s\n",
			"overlap", "side", "size", "ratio", "events", "wall-ms", "events/sec")
		for _, side := range []string{"send", "recv"} {
			for _, size := range []int{4096, 65536} {
				for _, mode := range experiments.OverlapModes {
					side, size, mode := side, size, mode
					w := workload{
						name: fmt.Sprintf("overlap-%s-%s-%d", side, mode, size),
						run: func() (float64, int64) {
							return experiments.OverlapPoint(mode, side, size, *shards)
						},
					}
					r := measure(w, *reps)
					e := overlapEntry{Mode: mode, Side: side, Size: size, Ratio: r.SimUS,
						Events: r.Events, WallMS: r.WallMS, EventsPerSec: r.EventsPerSec}
					rep.Overlap = append(rep.Overlap, e)
					fmt.Printf("%-22s %6s %8d %10.3f %12d %12.2f %14.0f\n",
						w.name, e.Side, e.Size, e.Ratio, e.Events, e.WallMS, e.EventsPerSec)
				}
			}
		}
	}

	if *waitstates {
		// The sampler-overhead comparison runs the identical seeded
		// workload with and without the sampler attached; any on/off gap
		// is the tick events plus the probe reads, since the sampler
		// never perturbs the workload itself (zero-perturbation is
		// asserted by the experiments tests).
		const wsRanks, wsIters = 8, 8
		offBest, onBest := time.Duration(1<<63-1), time.Duration(1<<63-1)
		var ticks uint64
		var gaugeEvents int64
		var waits int
		var analyzeBest time.Duration = 1<<63 - 1
		for r := 0; r < *reps; r++ {
			start := time.Now() //lint:allow detclock perfbench measures real wall time by design
			experiments.UnsampledRun(wsRanks, wsIters, *shards)
			//lint:allow detclock perfbench measures real wall time by design
			if d := time.Since(start); d < offBest {
				offBest = d
			}
			start = time.Now() //lint:allow detclock perfbench measures real wall time by design
			smp, rec := experiments.SampledRun(wsRanks, wsIters, *shards, 0)
			//lint:allow detclock perfbench measures real wall time by design
			if d := time.Since(start); d < onBest {
				onBest = d
			}
			ticks = smp.Ticks()
			events := rec.Events()
			gaugeEvents = 0
			for _, e := range events {
				if e.Kind == trace.GaugeSample {
					gaugeEvents++
				}
			}
			start = time.Now() //lint:allow detclock perfbench measures real wall time by design
			wp := obs.AnalyzeWaits(events)
			//lint:allow detclock perfbench measures real wall time by design
			if d := time.Since(start); d < analyzeBest {
				analyzeBest = d
			}
			waits = len(wp.Waits)
		}
		ws := &waitStateResult{
			SamplerOffWallMS: float64(offBest.Nanoseconds()) / 1e6,
			SamplerOnWallMS:  float64(onBest.Nanoseconds()) / 1e6,
			SamplerOverhead:  float64(onBest.Nanoseconds()) / float64(offBest.Nanoseconds()),
			SamplerTicks:     ticks,
			GaugeEvents:      gaugeEvents,
			AnalyzerWallMS:   float64(analyzeBest.Nanoseconds()) / 1e6,
			AnalyzerWaits:    waits,
		}
		rep.WaitStates = ws
		fmt.Printf("\n%-22s %12s %12s %10s %8s %12s %12s %8s\n",
			"waitstates", "off ms", "on ms", "overhead", "ticks", "gauge-evs", "analyze-ms", "waits")
		fmt.Printf("%-22s %12.2f %12.2f %9.3fx %8d %12d %12.2f %8d\n",
			fmt.Sprintf("sampled-%dx%d", wsRanks, wsIters),
			ws.SamplerOffWallMS, ws.SamplerOnWallMS, ws.SamplerOverhead,
			ws.SamplerTicks, ws.GaugeEvents, ws.AnalyzerWallMS, ws.AnalyzerWaits)
	}

	if *sweeps {
		w := parsweep.Resolve(*workers)
		fmt.Printf("\n%-22s %8s %12s %12s %10s\n", "sweep workload", "jobs", "j=1 ms", fmt.Sprintf("j=%d ms", w), "speedup")
		prod := 1.0
		for _, sw := range sweepWorkloads() {
			r := measureSweep(sw, w, *reps)
			rep.Sweeps = append(rep.Sweeps, r)
			prod *= r.Speedup
			fmt.Printf("%-22s %8d %12.2f %12.2f %9.2fx\n", r.Name, r.Jobs, r.SeqWallMS, r.ParWallMS, r.Speedup)
		}
		rep.SweepGeomean = math.Pow(prod, 1/float64(len(rep.Sweeps)))
		fmt.Printf("parallel sweep geomean %.2fx at %d workers\n", rep.SweepGeomean, w)
	}

	if base != nil {
		rep.Baseline = *baseline
		prod, n := 1.0, 0
		fmt.Printf("\n%-22s %12s %12s %10s\n", "overhead vs baseline", "base ns/ev", "now ns/ev", "ratio")
		for _, cur := range rep.Workloads {
			for _, b := range base.Workloads {
				if b.Name != cur.Name || b.NSPerEvent <= 0 {
					continue
				}
				if cur.SimUS != b.SimUS || cur.Events != b.Events {
					fmt.Fprintf(os.Stderr,
						"perfbench: %s simulated result changed vs baseline (%.3fus/%d events, was %.3fus/%d) — ratio compares different work\n",
						cur.Name, cur.SimUS, cur.Events, b.SimUS, b.Events)
				}
				e := overheadEntry{Name: cur.Name, BaselineNS: b.NSPerEvent,
					CurrentNS: cur.NSPerEvent, Overhead: cur.NSPerEvent / b.NSPerEvent}
				rep.ObsOverhead = append(rep.ObsOverhead, e)
				prod *= e.Overhead
				n++
				fmt.Printf("%-22s %12.1f %12.1f %9.3fx\n", e.Name, e.BaselineNS, e.CurrentNS, e.Overhead)
			}
		}
		if n > 0 {
			rep.ObsOverheadGeomean = math.Pow(prod, 1/float64(n))
			fmt.Printf("instrumentation-off overhead geomean %.3fx (vs %s)\n", rep.ObsOverheadGeomean, *baseline)
		}
	}

	if (*before == "") != (*after == "") {
		log.Fatal("perfbench: -before and -after must be given together")
	}
	if *before != "" {
		sp, err := speedups(*before, *after)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		rep.Speedups = sp
		rep.MinSpeedup = sp[0].Speedup
		prod := 1.0
		for _, s := range sp {
			if s.Speedup < rep.MinSpeedup {
				rep.MinSpeedup = s.Speedup
			}
			prod *= s.Speedup
		}
		rep.MeanSpeedup = math.Pow(prod, 1/float64(len(sp)))
		fmt.Println()
		for _, s := range sp {
			fmt.Printf("%-34s %10.2f -> %8.2f ms/op  %5.2fx\n",
				s.Benchmark, s.BeforeMS, s.AfterMS, s.Speedup)
		}
		fmt.Printf("min speedup %.2fx, geomean %.2fx\n", rep.MinSpeedup, rep.MeanSpeedup)
	}

	if *out != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *memprofile != "" {
		runtime.GC() // materialize only live allocations in the profile
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *memprofile)
	}
}
