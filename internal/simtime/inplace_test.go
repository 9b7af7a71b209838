package simtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// The edge rules of a sleep wake run in place (Kernel.wakeInPlace). Each
// test checks, through WakesInPlace, which path it expects.

// TestTimerAtWakeInstantRunsFirst: a timer queued at exactly now+d has the
// smaller sequence number, so it runs before the sleeper continues and the
// wake switches; one instant later the wake is next and runs in place.
func TestTimerAtWakeInstantRunsFirst(t *testing.T) {
	for _, tc := range []struct {
		timer   Duration
		want    string
		inPlace int64
	}{
		{Microsecond, "[timer@1.000us sleeper@1.000us]", 0},
		{Microsecond + Picosecond, "[sleeper@1.000us timer@1.000us]", 1},
	} {
		k := NewKernel()
		var got []string
		k.Spawn("sleeper", func(p *Proc) {
			k.After(tc.timer, "timer", func() { got = append(got, "timer@"+k.Now().String()) })
			p.Sleep(Microsecond)
			got = append(got, "sleeper@"+p.Now().String())
		})
		k.Run()
		k.Close()
		if fmt.Sprint(got) != tc.want || k.WakesInPlace() != tc.inPlace {
			t.Errorf("timer at +%v: order %v with %d wakes in place, want %s with %d",
				tc.timer, got, k.WakesInPlace(), tc.want, tc.inPlace)
		}
	}
}

// TestSleepAfterStopStaysQueued: a proc that stops the kernel and then
// sleeps leaves its wake queued for the next Run, which resumes it; the
// run counts both halves' events.
func TestSleepAfterStopStaysQueued(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var resumed Time = -1
	k.Spawn("stopper", func(p *Proc) {
		k.Stop()
		p.Sleep(Microsecond)
		resumed = p.Now()
		p.Sleep(Microsecond)
	})
	n1 := k.Run()
	if resumed != -1 || k.Idle() || k.WakesInPlace() != 0 || fmt.Sprint(k.Stalled()) != "[stopper]" {
		t.Fatalf("after the stopped Run: resumed at %v, idle %v, %d in place, stalled %v; want the wake queued",
			resumed, k.Idle(), k.WakesInPlace(), k.Stalled())
	}
	n2 := k.Run()
	if resumed != Time(Microsecond) || k.Now() != Time(2*Microsecond) || k.WakesInPlace() != 1 {
		t.Errorf("second Run: resumed at %v, now %v, %d in place; want 1us, 2us, 1", resumed, k.Now(), k.WakesInPlace())
	}
	if n1 != 1 || n2 != 2 || k.Steps() != 3 {
		t.Errorf("Run returned %d then %d with %d steps, want 1, 2 and 3", n1, n2, k.Steps())
	}
}

// TestSleepAcrossRunUntilBoundParks: a wake at exactly the bound runs in
// place, one past it parks the proc until the next Run.
func TestSleepAcrossRunUntilBoundParks(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var woke []Time
	k.Spawn("sleeper", func(p *Proc) {
		for _, d := range []Duration{Microsecond, 2 * Microsecond, 3 * Microsecond} {
			p.Sleep(d)
			woke = append(woke, p.Now())
		}
	})
	if n := k.RunUntil(Time(3 * Microsecond)); n != 3 {
		t.Errorf("RunUntil(3us) ran %d events, want 3", n)
	}
	if fmt.Sprint(woke) != "[1.000us 3.000us]" || k.WakesInPlace() != 2 || fmt.Sprint(k.Stalled()) != "[sleeper]" {
		t.Fatalf("after RunUntil(3us): woke %v, %d in place, stalled %v; want [1us 3us], 2, the sleeper parked",
			woke, k.WakesInPlace(), k.Stalled())
	}
	k.Run()
	if fmt.Sprint(woke) != "[1.000us 3.000us 6.000us]" || k.WakesInPlace() != 2 || k.Steps() != 4 {
		t.Errorf("after Run: woke %v, %d in place, %d steps", woke, k.WakesInPlace(), k.Steps())
	}
}

// TestDeferredSleepDuringCloseUnwinds: the heap is empty when Close
// unwinds, but a Sleep in a deferred function still parks, so the body
// unwinds instead of running on.
func TestDeferredSleepDuringCloseUnwinds(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	outer, after := false, false
	k.Spawn("unwinding", func(p *Proc) {
		defer func() { outer = true }()
		defer func() {
			p.Sleep(Microsecond)
			after = true
		}()
		NewSignal().Wait(p)
	})
	k.Run()
	k.Close()
	if !outer || after || k.WakesInPlace() != 0 {
		t.Errorf("outer defer ran %v, code after the Sleep ran %v, %d in place; want true, false, 0",
			outer, after, k.WakesInPlace())
	}
	if n := goroutinesSettleTo(before); n != before {
		t.Errorf("%d goroutines after Close, %d before NewKernel", n, before)
	}
}

// TestWorkerShardsNeverWakeInPlace: a lone sleeper wakes in place on a
// plain kernel and never on one with worker shards, whether or not its
// epochs are enabled; the step count is the same on all three.
func TestWorkerShardsNeverWakeInPlace(t *testing.T) {
	run := func(workers int, parallel bool) (int64, int64) {
		k := newTestKernel(workers)
		defer k.Close()
		k.SchedFor(3).Spawn("alone", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(Microsecond)
			}
		})
		if parallel {
			k.EnableParallel()
		}
		k.Run()
		return k.Steps(), k.WakesInPlace()
	}
	steps, inPlace := run(0, false)
	if steps != 11 || inPlace != 10 {
		t.Errorf("plain kernel: %d steps, %d in place; want 11 and 10", steps, inPlace)
	}
	for _, parallel := range []bool{false, true} {
		if s, n := run(2, parallel); s != steps || n != 0 {
			t.Errorf("2 workers, parallel %v: %d steps, %d in place; want %d and 0", parallel, s, n, steps)
		}
	}
}

// TestInPlaceWakesMatchSwitchedOnes: a program with host compute, ties,
// timers and signals traces the same labels at the same instants, logs the
// same history and counts the same steps on a plain kernel, where wakes run
// in place, as on a kernel whose worker shards force every wake to switch.
func TestInPlaceWakesMatchSwitchedOnes(t *testing.T) {
	prog := []byte{
		2,                            // three procs
		0, 5, 6, 3, 0, 2, 1, 0, 7, 0, // sleep, timer, sleep, yield, compute
		0, 5, 2, 0, 7, 1, 0, 4, 3, 1, // sleep, wait sig0, compute, sleep, fire sig1
		7, 2, 0, 1, 3, 0, 0, 6, 2, 1, // compute, sleep, fire sig0, sleep, wait sig1
	}
	plain, ref := runSleepProgram(prog, 0), runSleepProgram(prog, 2)
	if plain.inPlace == 0 || ref.inPlace != 0 {
		t.Fatalf("%d wakes in place on the plain kernel, %d on the sharded one; want some and none", plain.inPlace, ref.inPlace)
	}
	plain.inPlace = 0
	if !reflect.DeepEqual(plain, ref) {
		t.Errorf("plain kernel diverged from the switched reference:\n got: %+v\nwant: %+v", plain, ref)
	}
}

// TestMisusedSleepStillPanics: the protocol checks behind Sleep still fire
// where nothing else is due by the wake — a proc whose wake is already
// pending (here one past the sleep's end), and a Sleep called on a parked
// proc from outside its body.
func TestMisusedSleepStillPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	p := k.Spawn("misused", func(p *Proc) {
		p.readyAt(2*Microsecond, "stray")
		mustPanicWith(t, `double wake of proc "misused" (sleep)`, func() { p.Sleep(Microsecond) })
		p.park() // the stray wake resumes it
		NewSignal().Wait(p)
	})
	k.After(3*Microsecond, "foreign", func() {
		mustPanicWith(t, `park of "misused" in state 2`, func() { p.Sleep(Microsecond) })
	})
	k.Run()
	if k.WakesInPlace() != 0 {
		t.Errorf("%d wakes in place, want 0", k.WakesInPlace())
	}
}

// sleepRun is everything a program run can observe, and the schedule
// sequence it ends at, which the wakes run in place must also consume.
type sleepRun struct {
	log, trace   []string
	ran, steps   int64
	now          Time
	seq, inPlace int64
	stalledProcs []string
}

// runSleepProgram decodes prog into 1–6 procs and runs them on a kernel
// with the given worker count, epochs never enabled. The first byte picks
// the proc count; the rest is split evenly into per-proc (op, arg) pairs:
// sleep arg%8 ns, yield, wait on or fire one of three signals, add to or
// wait on a counter, arm a timer that logs and fires a signal or adds to
// the counter, or compute arg%4 ns on a one-CPU host. Every action logs its
// proc and clock.
func runSleepProgram(prog []byte, workers int) sleepRun {
	var r sleepRun
	if len(prog) == 0 {
		return r
	}
	procs := 1 + int(prog[0])%6
	ops := prog[1:]
	per := len(ops) / procs / 2 * 2 // whole (op, arg) pairs
	k := NewKernel()
	if workers > 1 {
		k.Shard(ShardPlan{Workers: workers, Owner: func(e Entity) int { return 1 + int(e)%workers }, Lookahead: Nanosecond})
	}
	k.tracer = func(at Time, what string) { r.trace = append(r.trace, fmt.Sprintf("%d %s", int64(at), what)) }
	sigs := []*Signal{NewSignal(), NewSignal(), NewSignal()}
	ctr := NewCounter()
	cpu := NewSemaphore(1)
	for i := 0; i < procs; i++ {
		code := ops[i*per : (i+1)*per]
		k.SchedFor(Entity(i+1)).Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j+1 < len(code); j += 2 {
				op, arg := code[j]%8, code[j+1]
				switch op {
				case 0:
					p.Sleep(Duration(arg%8) * Nanosecond)
				case 1:
					p.Yield()
				case 2:
					sigs[arg%3].Wait(p)
				case 3:
					sigs[arg%3].Fire()
				case 4:
					ctr.Add(1)
				case 5:
					ctr.WaitFor(p, ctr.Value()+int64(arg%2))
				case 6:
					k.After(Duration(arg%8)*Nanosecond, "timer", func() {
						r.log = append(r.log, fmt.Sprintf("timer %d@%d", arg, int64(k.Now())))
						if arg&8 != 0 {
							sigs[arg%3].Fire()
						} else {
							ctr.Add(1)
						}
					})
				case 7:
					cpu.Acquire(p)
					p.Sleep(Duration(arg%4) * Nanosecond)
					cpu.Release()
				}
				r.log = append(r.log, fmt.Sprintf("%s op%d@%d", p.Name(), op, int64(p.Now())))
			}
		})
	}
	r.ran = k.Run()
	r.steps, r.now, r.seq, r.inPlace, r.stalledProcs = k.Steps(), k.Now(), k.gseq, k.WakesInPlace(), k.Stalled()
	k.Close()
	return r
}

// FuzzSleepInPlace runs random programs on a plain kernel, where sleep
// wakes run in place, and on one with two worker shards that never enables
// its epochs: the same (time, seq) engine, which never takes the in-place
// path. History, trace, Run's count, steps, clock and stalled procs must
// agree. The seed corpus runs under plain `go test`.
func FuzzSleepInPlace(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 3, 0, 0})                   // one proc, sleeps alone
	f.Add([]byte{1, 0, 2, 0, 2, 0, 2, 0, 2})             // two procs, tied sleeps
	f.Add([]byte{0, 6, 2, 0, 2, 6, 3, 0, 2})             // timers at the wake instant
	f.Add([]byte{2, 7, 1, 7, 2, 0, 1, 7, 3, 0, 0, 2, 1}) // compute contention
	f.Add([]byte{1, 2, 0, 0, 5, 0, 3, 3, 0})             // a wait, a fire, a sleep
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		prog := make([]byte, 1+rng.Intn(48))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			t.Skip()
		}
		plain, ref := runSleepProgram(prog, 0), runSleepProgram(prog, 2)
		if ref.inPlace != 0 {
			t.Fatalf("%d wakes in place on a kernel with worker shards", ref.inPlace)
		}
		plain.inPlace = 0
		if !reflect.DeepEqual(plain, ref) {
			t.Fatalf("in-place wakes diverged from switched ones:\n got: %+v\nwant: %+v", plain, ref)
		}
	})
}
