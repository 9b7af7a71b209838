// Command bench is the repository's benchmark: six workloads over the
// simulated Open MPI / Elan4 stack, measured on both of the system's
// clocks. Host time (wall_s, setup_s, alloc_mb, rss_peak_mb) says how fast
// the simulator runs; simulated time (sim_us) is what the modelled
// hardware would take and must never move unless a change says so.
//
//	bash bench/run.sh -workload pingpong -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload pingpong -seed 1 -trace 1   # per-layer metrics
//	bash bench/run.sh -selfcheck -seed 1                    # two sets, compared
//
// One run is one workload. Every repetition is a process of its own (the
// simulator leaves its daemon goroutines parked when a cluster finishes,
// so repetitions sharing a process are not the same work): one untimed
// warm-up repetition, then timed repetitions of identical work until
// -seconds have passed, never fewer than three. Every metric is printed by
// name and unit, every output of the simulator is checked, and the last
// line of standard output is the result as JSON. README.md in this
// directory explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name, unit string
	lower      bool
	bound      float64
}

// endToEnd are the metrics a user of the simulator sees. BENCHMARK.json
// repeats them; bench_test.go keeps the two in step. The bounds on the two
// noisy ones are three times the widest run-to-run spread measured on the
// reference box (README.md, Steadiness), not the tenth one would like.
var endToEnd = []metricDef{
	{"wall_s", "s", true, 0.25},
	{"setup_s", "s", true, 0.25},
	{"sim_us", "us", true, 0.01},
	{"alloc_mb", "MB", true, 0.05},
	{"rss_peak_mb", "MB", true, 0.20},
}

// minReps is the fewest timed repetitions a run reports a median over.
const minReps = 3

// now reads the host clock. The benchmark measures host time by design, so
// this is the one place the wall clock is read.
func now() time.Time {
	return time.Now() //lint:allow detclock the benchmark's subject is host time
}

// env is what one benchmark process was asked to do.
type env struct {
	seed    int64
	scale   float64 // multiplies every iteration count; 1 is the recorded size
	workers int     // runnable workers the report workload may use
	spans   *spanLog
}

func newEnv(seed int64, scale float64) *env {
	return &env{seed: seed, scale: scale, workers: min(runtime.NumCPU(), 4), spans: newSpanLog()}
}

// n scales an iteration count, never below one.
func (e *env) n(full int) int {
	return max(1, int(float64(full)*e.scale+0.5))
}

// stat is the median of a sample beside its extremes and size.
type stat struct {
	median, min, max float64
	n                int
}

func summarize(v []float64) stat {
	if len(v) == 0 {
		return stat{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return stat{median: med, min: s[0], max: s[len(s)-1], n: len(s)}
}

// result is everything one run reports.
type result struct {
	workload    string
	e2e         map[string]stat // end-to-end metrics, trace 0
	layers      layerValues     // per-layer metrics, trace 1
	ops, failed int64
	digest      string
	problems    []string // determinism or consistency violations
}

func (r *result) correct() bool { return r.ops > 0 && r.failed == 0 && len(r.problems) == 0 }

// spawner runs one repetition of a kind and returns its record. The real
// one starts a process; tests call runChild in their own.
type spawner func(kind string) (*record, error)

// processSpawner runs each repetition as a fresh process of this binary.
func processSpawner(workload string, e *env) spawner {
	return func(kind string) (*record, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, "-child", kind, "-workload", workload,
			"-seed", strconv.FormatInt(e.seed, 10), "-scale", strconv.FormatFloat(e.scale, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		start := now()
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s repetition of %s: %w", kind, workload, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		rec := &record{}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), rec); err != nil {
			return nil, fmt.Errorf("%s repetition of %s: %w", kind, workload, err)
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		rec.Started = start.Sub(e.spans.t0)
		rec.Elapsed = now().Sub(start)
		return rec, nil
	}
}

// agree reports how a repetition's simulated outcome differs from the
// first one's: identical work must give the identical simulated clock,
// kernel event count and output digest.
func agree(first, r *record) string {
	if r.SimPS != first.SimPS || r.Events != first.Events || r.Digest != first.Digest {
		return fmt.Sprintf("sim %d ps / %d events / digest %.12s, first repetition had %d ps / %d events / digest %.12s",
			r.SimPS, r.Events, r.Digest, first.SimPS, first.Events, first.Digest)
	}
	return ""
}

// fold adds a repetition's ops and failures to the result. A repetition
// whose simulated outcome differs from the first one's fails every op.
func (res *result) fold(first, r *record) {
	res.ops += r.Ops
	res.problems = append(res.problems, r.Problems...)
	if diff := agree(first, r); diff != "" {
		res.problems = append(res.problems, "repetitions disagree: "+diff)
		res.failed += r.Ops
	} else {
		res.failed += r.Failed
	}
}

// measure is one end-to-end run: timed repetitions for the given seconds,
// never fewer than reps of them, medians over them, and the determinism
// check across all.
//
// There is no warm-up repetition: each one is a fresh process, which is
// what every user of the simulator's commands pays, so there is nothing a
// first process could warm for the next.
func measure(name string, spawn spawner, seconds float64, reps int) (*result, error) {
	res := &result{workload: name, e2e: map[string]stat{}}
	var first *record
	var wall, alloc, rss, setup []float64
	var spent time.Duration
	for n := 1; n <= reps || spent.Seconds() < seconds; n++ {
		r, err := spawn("rep")
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = r
		}
		res.fold(first, r)
		spent += r.Elapsed
		wall = append(wall, r.NetS)
		alloc = append(alloc, r.AllocMB)
		rss = append(rss, r.RSSMB)
		setup = append(setup, r.SetupS...)
		fmt.Printf("repetition %d: wall %.3f s, %.2f s stolen, net %.3f s; alloc %.1f MB, rss %.1f MB\n",
			n, r.WallS, r.StolenS, r.NetS, r.AllocMB, r.RSSMB)
	}
	res.digest = first.Digest
	res.e2e["wall_s"] = summarize(wall)
	res.e2e["setup_s"] = summarize(setup)
	res.e2e["sim_us"] = summarize([]float64{float64(first.SimPS) / 1e6})
	res.e2e["alloc_mb"] = summarize(alloc)
	res.e2e["rss_peak_mb"] = summarize(rss)
	return res, nil
}

// ---- output ----

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) json() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.ops, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	if r.layers == nil {
		for _, m := range endToEnd {
			out.Metrics[m.name] = jsonMetric{r.e2e[m.name].median, m.unit}
		}
	} else {
		for _, m := range perLayer {
			out.Metrics[m.name] = jsonMetric{r.layers[m.name], m.unit}
		}
	}
	return out
}

// print writes the human-readable table and then, as the last line, the
// result object the driver parses.
func (r *result) print() error {
	fmt.Printf("workload %s\n", r.workload)
	if r.layers == nil {
		fmt.Printf("%-14s %16s %-4s %16s %16s %3s\n", "metric", "median", "unit", "min", "max", "n")
		for _, m := range endToEnd {
			s := r.e2e[m.name]
			fmt.Printf("%-14s %16.6f %-4s %16.6f %16.6f %3d\n", m.name, s.median, m.unit, s.min, s.max, s.n)
		}
	} else {
		fmt.Printf("%-34s %18s %s\n", "metric", "value", "unit")
		for _, m := range perLayer {
			fmt.Printf("%-34s %18.6f %s\n", m.name, r.layers[m.name], m.unit)
		}
	}
	fmt.Printf("sim_digest %s\nops %d\nops_failed %d\n", r.digest, r.ops, r.failed)
	for _, p := range r.problems {
		fmt.Printf("PROBLEM %s\n", p)
	}
	line, err := json.Marshal(r.json())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 10, "host seconds of timed repetitions (never fewer than three repetitions)")
	traceRun := flag.Int("trace", 0, "1 reports the per-layer metrics from probes, counters and a traced repetition instead of the end-to-end ones")
	scale := flag.Float64("scale", 1, "multiplies every iteration count; the recorded numbers use 1")
	outDir := flag.String("out", "bench/out", "directory the -trace span file is written to")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and fail if the two sets disagree by more than a metric's bound")
	child := flag.String("child", "", "internal: run one repetition of this kind and print its record")
	flag.Parse()
	e := newEnv(*seed, *scale)

	if *selfcheck {
		if err := runSelfcheck(e, *seconds); err != nil {
			fatal(fmt.Errorf("selfcheck: %w", err))
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %s\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child != "" {
		rec, err := runChild(*child, w, e)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}
	var res *result
	var err error
	if *traceRun == 0 {
		res, err = measure(w.name, processSpawner(w.name, e), *seconds, minReps)
	} else {
		res, err = traceMeasure(w, processSpawner(w.name, e), e, *outDir)
	}
	if err != nil {
		fatal(err)
	}
	if err := res.print(); err != nil {
		fatal(err)
	}
}
