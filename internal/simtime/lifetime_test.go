package simtime

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goroutinesSettleTo waits for the goroutine count to come down to want
// (an epoch worker that Close released, or an unwound proc, is still
// returning when Close does) and returns the last count seen.
func goroutinesSettleTo(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// steadyGoroutines returns the goroutine count once it has held for 5 ms:
// the goroutine of the test that ran before may still be returning.
func steadyGoroutines() int {
	n := runtime.NumGoroutine()
	for i, held := 0, 0; i < 200 && held < 5; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			held++
		} else {
			n, held = m, 0
		}
	}
	return n
}

// mustPanicWith runs fn and checks that it panics with a message
// containing want.
func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic = %v, want one containing %q", r, want)
		}
	}()
	fn()
}

// TestCloseUnwindsEverything: after Close no proc goroutine is left,
// whatever state Run left the procs in; each body's deferred functions ran
// exactly once; a second Close is a no-op; the kernel refuses new work.
func TestCloseUnwindsEverything(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := steadyGoroutines()
			k := newTestKernel(workers)
			deferred := map[string]int{}
			var order []string
			body := func(wait func(p *Proc)) func(p *Proc) {
				return func(p *Proc) {
					defer func() {
						deferred[p.Name()]++
						order = append(order, p.Name())
					}()
					p.Sleep(Microsecond)
					wait(p)
				}
			}
			sc := k.SchedFor(1)
			sc.Spawn("finishes", body(func(p *Proc) {}))
			sc.Spawn("deadlocked", body(func(p *Proc) { NewSignal().Wait(p) }))
			sc.Spawn("daemon", body(func(p *Proc) { p.MarkDaemon(); NewSignal().Wait(p) }))
			sem := NewSemaphore(0)
			sc.Spawn("releases-on-unwind", func(p *Proc) {
				defer sem.Release() // wakes a proc that is itself being unwound
				NewSignal().Wait(p)
			})
			sc.Spawn("acquirer", body(func(p *Proc) { sem.Acquire(p) }))
			k.EnableParallel()
			k.Run()
			// Spawned after the run: its spawn event never executes.
			k.Spawn("never-started", body(func(p *Proc) {}))

			if got := fmt.Sprint(k.Stalled()); got != "[acquirer deadlocked releases-on-unwind]" {
				t.Errorf("Stalled() = %s", got)
			}
			if n := goroutinesSettleTo(before + 4); n != before+4 {
				t.Errorf("%d goroutines with 4 procs parked, want %d", n, before+4)
			}
			k.Close()
			k.Close()
			if n := goroutinesSettleTo(before); n != before {
				t.Errorf("%d goroutines after Close, %d before NewKernel", n, before)
			}
			for _, name := range []string{"finishes", "deadlocked", "daemon", "acquirer"} {
				if deferred[name] != 1 {
					t.Errorf("deferred function of %q ran %d times, want 1", name, deferred[name])
				}
			}
			if deferred["never-started"] != 0 {
				t.Error("a proc that never started ran its body")
			}
			if got := fmt.Sprint(order); got != "[finishes deadlocked daemon acquirer]" {
				t.Errorf("unwind order %s, want spawn order", got)
			}
			if len(k.Stalled()) != 0 || k.Steps() == 0 {
				t.Errorf("after Close: Stalled() = %v, Steps() = %d", k.Stalled(), k.Steps())
			}
			mustPanicWith(t, "Spawn on a closed kernel", func() { k.Spawn("late", func(*Proc) {}) })
			mustPanicWith(t, "Run on a closed kernel", func() { k.Run() })
		})
	}
}

func TestCloseDuringRunPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.After(0, "close", func() { mustPanicWith(t, "Close during Run", k.Close) })
	k.Run()
}

// TestCloseSurvivesPanickingDefer: a deferred function that panics while
// its proc is unwound does not strand the procs after it; Close re-raises
// the panic once everything is unwound.
func TestCloseSurvivesPanickingDefer(t *testing.T) {
	before := steadyGoroutines()
	k := NewKernel()
	k.Spawn("faulty-defer", func(p *Proc) {
		defer panic("cleanup failed")
		NewSignal().Wait(p)
	})
	cleanedUp := false
	k.Spawn("after", func(p *Proc) {
		defer func() { cleanedUp = true }()
		NewSignal().Wait(p)
	})
	k.Run()
	mustPanicWith(t, `proc "faulty-defer" panicked at 0.000us: cleanup failed`, k.Close)
	if !cleanedUp {
		t.Error("the proc spawned after the faulty one was not unwound")
	}
	k.Close()
	if n := goroutinesSettleTo(before); n != before {
		t.Errorf("%d goroutines after Close, %d before NewKernel", n, before)
	}
}

// TestProcPanicSurfacesFromRun: a panic in a proc body comes out of Run on
// the caller's goroutine, wrapped with the proc's name and the virtual
// time, the original still reachable; the kernel can be closed afterwards.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := steadyGoroutines()
			k := newTestKernel(workers)
			cleanedUp := false
			k.SchedFor(1).Spawn("bystander", func(p *Proc) {
				defer func() { cleanedUp = true }()
				NewSignal().Wait(p)
			})
			k.SchedFor(2).Spawn("faulty", func(p *Proc) {
				p.Sleep(3 * Microsecond)
				panic(boom)
			})
			k.EnableParallel()
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			err, ok := got.(error)
			if !ok {
				t.Fatalf("Run panicked with %T %v, want an error", got, got)
			}
			var pp *ProcPanic
			if !errors.As(err, &pp) || !errors.Is(err, boom) {
				t.Fatalf("panic value %v does not unwrap to *ProcPanic and the original", err)
			}
			if pp.Proc != "faulty" || pp.At != Time(3*Microsecond) || pp.Value != boom {
				t.Errorf("context = proc %q at %v value %v", pp.Proc, pp.At, pp.Value)
			}
			if !strings.Contains(err.Error(), `proc "faulty" panicked at 3.000us: boom`) ||
				!strings.Contains(string(pp.Stack), "TestProcPanicSurfacesFromRun") {
				t.Errorf("diagnosis lacks context or the proc's stack:\n%v", err)
			}
			k.Close()
			if !cleanedUp {
				t.Error("Close after a proc panic did not unwind the other procs")
			}
			if n := goroutinesSettleTo(before); n != before {
				t.Errorf("%d goroutines after Close, %d before NewKernel", n, before)
			}
		})
	}
}

// TestProcPanicBesideADrainingShard: a proc panics on one shard of an
// epoch while the other shard's drain is still running — on the shard the
// coordinator drains itself, beside a worker, and on a worker's shard,
// beside the coordinator. Run re-raises the *ProcPanic only once the other
// drain has returned (the race detector sees finished written by it and
// read here), and Close unwinds everything.
func TestProcPanicBesideADrainingShard(t *testing.T) {
	boom := errors.New("boom")
	// Under blockOwner(2) entities 1–4 live on shard 1, which the
	// coordinator drains, and 5–8 on shard 2, which its worker drains.
	for _, tc := range []struct {
		name          string
		faulty, other Entity
	}{{"coordinator-shard", 1, 5}, {"worker-shard", 5, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			before := steadyGoroutines()
			k := newTestKernel(2)
			var panicking atomic.Bool
			finished := false
			k.SchedFor(tc.other).Spawn("other", func(p *Proc) {
				p.Sleep(Microsecond)
				for !panicking.Load() {
					runtime.Gosched()
				}
				time.Sleep(5 * time.Millisecond)
				finished = true
				NewSignal().Wait(p)
			})
			k.SchedFor(tc.faulty).Spawn("faulty", func(p *Proc) {
				p.Sleep(Microsecond)
				panicking.Store(true)
				panic(boom)
			})
			k.EnableParallel()
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			var pp *ProcPanic
			if err, ok := got.(error); !ok || !errors.As(err, &pp) || !errors.Is(err, boom) {
				t.Fatalf("Run panicked with %v, want a *ProcPanic wrapping boom", got)
			}
			if pp.Proc != "faulty" || pp.At != Time(Microsecond) {
				t.Errorf("context = proc %q at %v", pp.Proc, pp.At)
			}
			if !finished {
				t.Error("Run re-raised the panic before the other shard's drain returned")
			}
			k.Close()
			if n := goroutinesSettleTo(before); n != before {
				t.Errorf("%d goroutines after Close, %d before NewKernel", n, before)
			}
		})
	}
}

// startedWorkers returns the kernel's persistent epoch workers.
func startedWorkers(k *Kernel) []*worker {
	var ws []*worker
	for _, w := range k.workers {
		if w != nil {
			ws = append(ws, w)
		}
	}
	return ws
}

// TestEpochWorkersLiveUntilClose: a sharded kernel's epoch workers outlast
// Run, parked, a second Run hands its epochs to them, and Close ends them —
// the goroutine count comes back to its value before the kernel was built.
// The second Run's workload is spawned between the Runs at each entity's
// Sched.Now, which must not lag its worker shard's clock.
func TestEpochWorkersLiveUntilClose(t *testing.T) {
	before := steadyGoroutines()
	k := newTestKernel(4)
	synthSetup(k) // every proc returns
	k.EnableParallel()
	k.Run()
	ws := startedWorkers(k)
	if len(ws) == 0 {
		t.Fatal("four busy worker shards started no epoch worker")
	}
	if n := goroutinesSettleTo(before + len(ws)); n != before+len(ws) {
		t.Errorf("%d goroutines after Run with %d workers, want %d", n, len(ws), before+len(ws))
	}
	st := k.EpochStats()
	synthSetup(k)
	k.Run()
	if again := startedWorkers(k); !slices.Equal(again, ws) {
		t.Errorf("the second Run runs on %d epoch workers, not the first Run's %d", len(again), len(ws))
	}
	if again := k.EpochStats(); again.Spun+again.Parked == st.Spun+st.Parked {
		t.Error("the second Run handed no epoch to a worker")
	}
	k.Close()
	if n := goroutinesSettleTo(before); n != before {
		t.Errorf("%d goroutines after Close, %d before NewKernel", n, before)
	}
}

// TestNoWorkerWithoutEpochs: a sharded kernel whose parallel epochs are
// never enabled runs everything on the coordinator and starts no worker.
func TestNoWorkerWithoutEpochs(t *testing.T) {
	before := steadyGoroutines()
	k := newTestKernel(4)
	defer k.Close()
	synthSetup(k)
	k.Run()
	if ws := startedWorkers(k); len(ws) != 0 {
		t.Errorf("%d epoch workers started without EnableParallel", len(ws))
	}
	if st := k.EpochStats(); st.Epochs != 0 || st.Sequential != k.Steps() {
		t.Errorf("EpochStats() = %+v with %d steps, want every step sequential", st, k.Steps())
	}
	if n := goroutinesSettleTo(before); n != before {
		t.Errorf("%d goroutines after Run, %d before NewKernel", n, before)
	}
}

// TestQueueReleasesAndReuses: a popped value is not kept reachable by the
// backing array, a queue that drains after every push allocates nothing,
// and one that never drains stays as small as what it holds.
func TestQueueReleasesAndReuses(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	whole := q.items[:cap(q.items)] // still sees the slots Pop leaves behind
	for i := 0; i < 5; i++ {
		if v, ok := q.Pop(); !ok || v == nil {
			t.Fatalf("pop %d = %v, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatal("drained queue still pops")
	}
	for i, v := range whole {
		if v != nil {
			t.Errorf("slot %d still holds a popped value", i)
		}
	}
	v := new(int)
	q.Push(v)
	q.Pop()
	if n := testing.AllocsPerRun(100, func() { q.Push(v); q.Pop() }); n != 0 {
		t.Errorf("%v allocations per push and pop, want 0", n)
	}
	q.Push(v)
	q.Push(v)
	q.Push(v)
	for i := 0; i < 10000; i++ {
		q.Push(v)
		q.Pop()
	}
	if q.Len() != 3 || cap(q.items) > 16 {
		t.Errorf("backing array of %d slots for %d live values", cap(q.items), q.Len())
	}
}
