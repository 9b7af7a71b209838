package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// TestMemoKeyCoversSpec sets each field of cluster.Spec in turn on the spec
// Fig. 10 measures with. Either the field is part of the key (the key
// changes) or it must be zero before a spec is memoized (specKey refuses
// it). A field that does neither would let two different simulations share
// one answer: a new Spec field fails here until specKey classifies it.
func TestMemoKeyCoversSpec(t *testing.T) {
	k0, ok := specKey(simKey{}, bestRead())
	if !ok {
		t.Fatal("the best-read spec is not memoized")
	}
	typ := reflect.TypeOf(cluster.Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		spec := bestRead()
		v := reflect.ValueOf(&spec).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		case reflect.Func:
			v.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value { return nil }))
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		default:
			t.Fatalf("Spec.%s: no test value for a %s field", f.Name, f.Type)
		}
		if k, ok := specKey(simKey{}, spec); ok && k == k0 {
			t.Errorf("Spec.%s is neither in the memo key nor required to be zero", f.Name)
		}
	}
}

// memoKinds are the three ping-pong harnesses the memo answers, each as a
// request under c; the Open MPI ones run under spec.
var memoKinds = []struct {
	name string
	run  func(c Config, spec cluster.Spec, size, iters int) (float64, float64, parsweep.Metrics)
}{
	{"openmpi", func(c Config, spec cluster.Spec, size, iters int) (float64, float64, parsweep.Metrics) {
		return c.openMPI(spec, size, iters)
	}},
	{"tport", func(c Config, _ cluster.Spec, size, iters int) (float64, float64, parsweep.Metrics) {
		lat, m := c.tport(size, iters)
		return lat, 0, m
	}},
	{"qdma", func(c Config, _ cluster.Spec, size, iters int) (float64, float64, parsweep.Metrics) {
		lat, m := c.qdma(size, iters)
		return lat, 0, m
	}},
}

// sameRun reports whether two runs agree to the float bit and in every
// engine counter but Reused.
func sameRun(lat, pmlCost float64, m parsweep.Metrics, wantLat, wantPML float64, want parsweep.Metrics) bool {
	m.Reused, want.Reused = 0, 0
	return math.Float64bits(lat) == math.Float64bits(wantLat) && math.Float64bits(pmlCost) == math.Float64bits(wantPML) && m == want
}

// TestMemoHitMatchesFresh: for each ping-pong kind, the first request of a
// DefaultConfig runs, the second is answered with the first's bits and
// metrics marked Reused, and both equal a Config literal's fresh run.
func TestMemoHitMatchesFresh(t *testing.T) {
	for _, kind := range memoKinds {
		cfg := DefaultConfig()
		lat1, pml1, m1 := kind.run(cfg, bestRead(), 2048, 5)
		lat2, pml2, m2 := kind.run(cfg.WithIters(7), bestRead(), 2048, 5)
		lat, pmlCost, m := kind.run(Config{Warmup: Warmup}, bestRead(), 2048, 5)
		if m1.Reused != 0 || m2.Reused != 1 || m.Reused != 0 {
			t.Errorf("%s: Reused %d, %d, fresh %d; want 0, 1, 0", kind.name, m1.Reused, m2.Reused, m.Reused)
		}
		if !sameRun(lat1, pml1, m1, lat, pmlCost, m) || !sameRun(lat2, pml2, m2, lat, pmlCost, m) {
			t.Errorf("%s: memo %v/%v %+v then %v/%v %+v, fresh %v/%v %+v",
				kind.name, lat1, pml1, m1, lat2, pml2, m2, lat, pmlCost, m)
		}
	}
}

// TestMemoPerConfig: two DefaultConfig values never share a memo, so a
// determinism check that builds two runs compares two simulations; copies
// of one config share it.
func TestMemoPerConfig(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.memo == b.memo {
		t.Fatal("two DefaultConfig values share a memo")
	}
	if a.WithIters(5).memo != a.memo {
		t.Error("a copy of a config does not share its memo")
	}
	if _, _, m := a.openMPI(bestRead(), 4, 5); m.Reused != 0 {
		t.Errorf("a's first run was reused: %+v", m)
	}
	if _, _, m := b.openMPI(bestRead(), 4, 5); m.Reused != 0 {
		t.Errorf("b reused a's run: %+v", m)
	}
}

// TestOpenMPIPingPongNeverMemoized: the exported harness builds a Config
// literal, so every call simulates — TestConcurrentSimulationsShareNothing
// runs two kernels at once, not one kernel and a lookup. A memo hit
// allocates next to nothing; a simulation allocates its whole cluster.
func TestOpenMPIPingPongNeverMemoized(t *testing.T) {
	spec := bestRead()
	OpenMPIPingPong(spec, 64, 5)
	if allocs := testing.AllocsPerRun(3, func() { OpenMPIPingPong(spec, 64, 5) }); allocs < 100 {
		t.Errorf("OpenMPIPingPong allocated %.0f objects per call: it answered from a memo", allocs)
	}
}

// waitingIn counts the goroutines parked on a channel receive inside fn.
func waitingIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		head, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(head, "[chan receive") && strings.HasPrefix(frames, fn) {
			n++
		}
	}
	return n
}

// TestMemoForgetsPanics: a request that waits on a run that panics gets the
// panic, not zeros, and the key is not kept, so the next request runs.
func TestMemoForgetsPanics(t *testing.T) {
	cfg := DefaultConfig()
	k := cfg.pingKey(openMPIPing, 4, 5)
	started, release := make(chan struct{}), make(chan struct{})
	caught := func(fn func()) (p any) {
		defer func() { p = recover() }()
		fn()
		return nil
	}
	var owner, waiter any
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		owner = caught(func() {
			cfg.simulate(k, true, func() (float64, float64, parsweep.Metrics) {
				close(started)
				<-release
				panic("boom")
			})
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		waiter = caught(func() {
			cfg.simulate(k, true, func() (float64, float64, parsweep.Metrics) {
				t.Error("the waiting request ran the simulation itself")
				return 0, 0, parsweep.Metrics{}
			})
		})
	}()
	for waitingIn("qsmpi/internal/experiments.Config.simulate") == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if owner != "boom" || waiter != "boom" {
		t.Fatalf("the running request raised %v, the waiting one %v; want boom for both", owner, waiter)
	}
	ran := false
	lat, _, m := cfg.simulate(k, true, func() (float64, float64, parsweep.Metrics) {
		ran = true
		return 1.5, 0, parsweep.Metrics{SimEvents: 3}
	})
	if !ran || lat != 1.5 || m != (parsweep.Metrics{SimEvents: 3}) {
		t.Errorf("after the panic the next request ran=%v and got %v %+v", ran, lat, m)
	}
}

// TestMemoSweepWorkers: a sweep whose curves repeat keys gives the same
// values and the same engine totals at four workers as at one, where
// concurrent requests for one key wait for its single run (make check runs
// this under -race).
func TestMemoSweepWorkers(t *testing.T) {
	run := func(workers int) (string, parsweep.Metrics) {
		var st parsweep.Stats
		cfg := DefaultConfig().WithIters(5)
		cfg.Workers, cfg.Stats = workers, &st
		r := cfg.sweep(plot{"memo", "repeated keys", "bytes", "latency us", []int{0, 4, 4096}, []curve{
			cfg.ping("best", bestRead()), cfg.ping("again", bestRead()), cfg.ping("basic", modeSpec("basic")),
			line("tport", func(n int) (float64, parsweep.Metrics) { return cfg.tport(n, cfg.Iters) }),
			line("tport again", func(n int) (float64, parsweep.Metrics) { return cfg.tport(n, cfg.Iters) }),
		}})
		return renderResults([]*Result{r}), st.Totals()
	}
	seq, seqM := run(1)
	par, parM := run(4)
	if par != seq || parM != seqM {
		t.Errorf("4 workers differ from 1: %+v vs %+v, %s", parM, seqM, firstDiff(seq, par))
	}
	if seqM.Reused != 9 {
		t.Errorf("15 jobs over 6 distinct keys reused %d runs, want 9", seqM.Reused)
	}
}

// FuzzMemoMatchesFresh runs one decoded configuration twice through one
// DefaultConfig and once through a Config literal: all three must agree to
// the float bit and in every engine counter. The bytes are the harness
// (Open MPI, Tport or QDMA), the scheme and option bits, a Table 1
// row, a size near 0, near the 2 KB slot or at the 1 984 / 1 985 B eager
// boundary, and a small iteration count.
func FuzzMemoMatchesFresh(f *testing.F) {
	for _, seed := range [][5]byte{
		{0, 0, 0, 0, 1}, {1, 1, 1, 2, 0}, {0, 0x0f, 2, 3, 2},
		{2, 0, 0, 4, 3}, {3, 0, 0, 5, 0}, {0, 0x05, 3, 6, 1},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4])
	}
	sizes := []int{0, 1, 4, 2047, 2048, 2049, 1984, 1985}
	rows := []string{"basic", "interrupt", "one-thread", "two-threads"}
	f.Fuzz(func(t *testing.T, kindB, optB, rowB, sizeB, itersB byte) {
		kind := memoKinds[int(kindB)%len(memoKinds)]
		opts := ptlelan4.Options{Scheme: ptlelan4.RDMARead, InlineRndv: optB&2 != 0, ChainFin: optB&4 != 0}
		if optB&1 != 0 {
			opts.Scheme = ptlelan4.RDMAWrite
		}
		spec, err := elanSpec(opts, optB&8 != 0, pml.Polling).WithProgressRow(rows[int(rowB)%len(rows)])
		if err != nil {
			t.Fatal(err)
		}
		size, iters := sizes[int(sizeB)%len(sizes)], 1+int(itersB)%4
		if kind.name == "qdma" {
			size = min(size, 1984)
		}
		cfg := DefaultConfig()
		lat1, pml1, m1 := kind.run(cfg, spec, size, iters)
		lat2, pml2, m2 := kind.run(cfg, spec, size, iters)
		lat, pmlCost, m := kind.run(Config{Warmup: Warmup}, spec, size, iters)
		desc := fmt.Sprintf("%s %+v dtp=%v row=%s size=%d iters=%d", kind.name, opts, optB&8 != 0, rows[int(rowB)%len(rows)], size, iters)
		if m2.Reused != 1 || !sameRun(lat1, pml1, m1, lat, pmlCost, m) || !sameRun(lat2, pml2, m2, lat, pmlCost, m) {
			t.Errorf("%s: memo %v/%v %+v then %v/%v %+v, fresh %v/%v %+v",
				desc, lat1, pml1, m1, lat2, pml2, m2, lat, pmlCost, m)
		}
	})
}
