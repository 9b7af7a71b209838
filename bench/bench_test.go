package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"qsmpi/internal/lint"
	"qsmpi/internal/lint/driver"
)

// testScale shrinks every iteration count; the clusters keep their size.
const testScale = 0.02

// inProcess runs repetitions in the test's own process.
func inProcess(w *workload, seed int64) spawner {
	return func(kind string) (*record, error) {
		start := time.Now()
		rec, err := runChild(kind, w, newEnv(seed, testScale))
		if rec != nil {
			rec.Elapsed = time.Since(start)
		}
		return rec, err
	}
}

// declaration is BENCHMARK.json as the driver reads it.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func better(m metricDef) string {
	if m.lower {
		return "lower"
	}
	return "higher"
}

// TestDeclaration keeps BENCHMARK.json and the tables in the code in step:
// same workloads, same metrics, same units, directions and bounds.
func TestDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		use(w.name)
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			use(m.name)
			g := got[i]
			if !unit.MatchString(m.unit) {
				t.Errorf("%s %s: unit %q is not allowed", kind, m.name, m.unit)
			}
			if g.Name != m.name || g.Unit != m.unit || g.Better != better(m) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the benchmark %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, better(m))
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s %s: bound must be in (0, 0.25] and equal in both places", kind, m.name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// heavy reports the workloads that bring up 1024 ranks whatever the scale.
func heavy(w *workload) bool { return strings.HasPrefix(w.name, "coll-1024") }

// TestWorkloads runs every workload end to end at a small scale: outputs
// check, two repetitions agree on every simulated statistic, and the
// result object carries exactly the declared end-to-end metrics.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && heavy(w) {
				t.Skip("brings up 1024 ranks")
			}
			res, err := measure(w.name, inProcess(w, 7), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.failed != 0 || res.ops == 0 {
				t.Errorf("ops %d, failed %d, problems %q", res.ops, res.failed, res.problems)
			}
			out := res.json()
			if len(out.Metrics) != len(endToEnd) {
				t.Errorf("result has %d metrics, want %d", len(out.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if got, ok := out.Metrics[m.name]; !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
		})
	}
}

// TestSeedChangesInputs checks that the seed reaches the simulator: other
// seeds give other outputs, the same seed the same ones.
func TestSeedChangesInputs(t *testing.T) {
	w := findWorkload("alltoall-32")
	digest := func(seed int64) string {
		rec, err := runChild("rep", w, newEnv(seed, testScale))
		if err != nil {
			t.Fatal(err)
		}
		return rec.Digest
	}
	a, b, again := digest(1), digest(2), digest(1)
	if a == b {
		t.Error("seeds 1 and 2 give the same sim_digest")
	}
	if a != again {
		t.Error("seed 1 gives two different sim_digests")
	}
}

// TestTrace runs every workload's per-layer run at a small scale: every
// declared per-layer metric is reported, host.share.* sums to 1, the
// phases sum to the mean message latency (traceMeasure reports either as a
// problem), and the span file is well-formed.
func TestTrace(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && heavy(w) {
				t.Skip("brings up 1024 ranks")
			}
			dir := t.TempDir()
			res, err := traceMeasure(w, inProcess(w, 7), newEnv(7, testScale), dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Errorf("ops %d, failed %d, problems %q", res.ops, res.failed, res.problems)
			}
			out := res.json()
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("result has %d metrics, want %d", len(out.Metrics), len(perLayer))
			}
			var shares float64
			for _, m := range perLayer {
				got, ok := out.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || got.Value < 0 {
					t.Errorf("%s = %+v, want a value in %s", m.name, got, m.unit)
				}
				if strings.HasPrefix(m.name, "host.share.") {
					shares += got.Value
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("host.share.* sums to %v", shares)
			}
			for _, name := range []string{"simtime.handoff_ns", "simtime.events", "trace.events", "trace.overhead_x", "sim.fig9.qdma_us"} {
				if !(res.layers[name] > 0) {
					t.Errorf("%s = %v, want it measured", name, res.layers[name])
				}
			}

			data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []struct {
					Name string
					Dur  float64
					Args struct {
						ID     int `json:"id"`
						Parent int `json:"parent_id"`
					}
				}
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for i, ev := range file.TraceEvents {
				names[strings.Fields(ev.Name)[0]] = true
				if ev.Args.ID != i || ev.Args.Parent >= i || ev.Dur < 0 {
					t.Fatalf("span %d %q: id %d, parent %d, duration %v", i, ev.Name, ev.Args.ID, ev.Args.Parent, ev.Dur)
				}
			}
			for _, want := range []string{"workload", "process", "rep", "probe"} {
				if !names[want] {
					t.Errorf("span file has no %q span", want)
				}
			}
		})
	}
}

// TestShareGroups pins the attribution of the leaf functions the recorded
// profiles are made of, and reads a real profile back.
func TestShareGroups(t *testing.T) {
	for fn, want := range map[string]string{
		"qsmpi/internal/simtime.(*Kernel).run":             "simtime",
		"qsmpi/internal/simtime.(*eventHeap).pop":          "simtime",
		"qsmpi/internal/fabric.(*Network).Send":            "fabric",
		"qsmpi/internal/libelan.(*Queue).Recv":             "elan4",
		"qsmpi/internal/ptl.(*Header).EncodeTo":            "ptlelan4",
		"qsmpi/internal/obs.WritePerfetto":                 "obs",
		"qsmpi/internal/experiments.openMPITraced":         "other",
		"runtime.chanrecv":                                 "rt_sched",
		"runtime.casgstatus":                               "rt_sched",
		"runtime.futex":                                    "rt_sched",
		"runtime.(*waitq).dequeue":                         "rt_sched",
		"runtime.scanobject":                               "rt_gc",
		"runtime.gcDrain":                                  "rt_gc",
		"runtime.(*mspan).heapBitsSmallForAddr":            "rt_gc",
		"runtime.memmove":                                  "rt_mem",
		"runtime.mallocgcSmallScanNoHeader":                "rt_mem",
		"runtime.(*mcache).nextFree":                       "rt_mem",
		"internal/runtime/maps.ctrlGroup.matchH2":          "other",
		"encoding/json.structEncoder.encode":               "other",
		"sync/atomic.(*Int64).Add":                         "rt_sched",
		"internal/runtime/atomic.(*Uint32).CompareAndSwap": "rt_sched",
	} {
		if got := shareGroup(fn); got != want {
			t.Errorf("shareGroup(%q) = %q, want %q", fn, got, want)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start, x := time.Now(), uint64(1); time.Since(start) < 100*time.Millisecond; {
		x = x*6364136223846793005 + 1
	}
	pprof.StopCPUProfile()
	flat, err := flatSamples(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var samples int64
	for fn, n := range flat {
		if fn == "" || n <= 0 {
			t.Errorf("flat[%q] = %d", fn, n)
		}
		samples += n
	}
	if samples == 0 {
		t.Error("100 ms of spinning left no CPU samples")
	}
	if _, err := flatSamples([]byte("not a profile")); err == nil {
		t.Error("flatSamples accepted garbage")
	}
}

// TestCompareSets checks the selfcheck's rule on made-up results.
func TestCompareSets(t *testing.T) {
	mk := func(wall, sim float64, digest string) []*result {
		r := &result{workload: "pingpong", ops: 10, digest: digest, e2e: map[string]stat{}}
		for _, m := range endToEnd {
			r.e2e[m.name] = stat{median: 1}
		}
		r.e2e["wall_s"] = stat{median: wall}
		r.e2e["sim_us"] = stat{median: sim}
		return []*result{r}
	}
	if bad := compareSets(mk(1, 5, "d"), mk(1.24, 5, "d")); len(bad) != 0 {
		t.Errorf("24%% apart on a 25%% bound was reported: %q", bad)
	}
	if bad := compareSets(mk(1, 5, "d"), mk(1.26, 5, "d")); len(bad) != 1 {
		t.Errorf("26%% apart on a 25%% bound: %q", bad)
	}
	if bad := compareSets(mk(1, 5, "d"), mk(1, 5.000001, "d")); len(bad) != 1 {
		t.Errorf("a moved simulated clock: %q", bad)
	}
	if bad := compareSets(mk(1, 5, "d"), mk(1, 5, "e")); len(bad) != 1 {
		t.Errorf("a moved digest: %q", bad)
	}
	failing := mk(1, 5, "d")
	failing[0].failed = 1
	if bad := compareSets(mk(1, 5, "d"), failing); len(bad) != 1 {
		t.Errorf("a failed op: %q", bad)
	}
}

// TestDisagreeingRepetitionFails checks that a repetition whose simulated
// outcome moved fails all of its ops instead of scoring.
func TestDisagreeingRepetitionFails(t *testing.T) {
	n := 0
	spawn := func(string) (*record, error) {
		n++
		rec := &record{WallS: 1, NetS: 1, SetupS: []float64{1}, AllocMB: 1, RSSMB: 1, SimPS: 1000, Events: 5, Digest: "d", Ops: 4}
		if n == 3 {
			rec.SimPS++
		}
		return rec, nil
	}
	res, err := measure("pingpong", spawn, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.ops != 12 || res.failed != 4 || len(res.problems) != 1 {
		t.Errorf("ops %d, failed %d, problems %q", res.ops, res.failed, res.problems)
	}
}

// TestLintClean holds the benchmark to the simulator's own analyzers: every
// wall-clock read annotated, no map order reaching output, seeded
// randomness only, requests waited for, collectives in uniform order.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export")
	}
	findings, err := driver.Check(".", lint.Analyzers(), ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
