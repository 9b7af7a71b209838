package simtime

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// TestDeferredSleepDuringCloseUnwinds: the heap is empty when Close
// unwinds, but a Sleep in a deferred function still parks, so the body
// unwinds instead of running on.
func TestDeferredSleepDuringCloseUnwinds(t *testing.T) {
	before := steadyGoroutines()
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
	plain, ref := runSleepProgram(prog, 0, false), runSleepProgram(prog, 2, false)
	if plain.inPlace == 0 || ref.inPlace != 0 {
		t.Fatalf("%d wakes in place on the plain kernel, %d on the sharded one; want some and none", plain.inPlace, ref.inPlace)
	}
	if !reflect.DeepEqual(plain.counted(), ref) {
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

// The drain, Kernel.wakeInPlace's other outcome (runBefore): a sleeper
// with only timer callbacks due before its wake runs them itself, then
// takes the wake without a switch; at anything else it parks. Each test checks, through
// WakesDrained, which path it expects; the orders and counts are the run
// loop's.

// TestSleeperDrainsTimersBeforeWake: two timers strictly between a sleep
// and its wake, the second armed by the first, run in the run loop's order
// on the sleeper's drain, which sees the sleeper parked; then the wake runs
// without a switch and Run counts every event.
func TestSleeperDrainsTimersBeforeWake(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var got []string
	log := func(what string) { got = append(got, what+"@"+k.Now().String()) }
	k.Spawn("sleeper", func(p *Proc) {
		k.After(Microsecond, "first", func() {
			log(fmt.Sprint("first", k.Stalled()))
			k.After(Microsecond, "second", func() { log("second") })
		})
		p.Sleep(3 * Microsecond)
		log("sleeper")
	})
	n := k.Run()
	if want := "[first[sleeper]@1.000us second@2.000us sleeper@3.000us]"; fmt.Sprint(got) != want {
		t.Errorf("order %v, want %s", got, want)
	}
	if k.WakesDrained() != 1 || k.WakesInPlace() != 0 || n != 4 || k.Steps() != 4 {
		t.Errorf("%d drained, %d in place, Run %d, %d steps; want 1, 0, 4, 4", k.WakesDrained(), k.WakesInPlace(), n, k.Steps())
	}
}

// drainCase runs body as proc "sleeper" beside any other procs it spawns,
// and checks the logged order and that no sleep was drained.
func drainCase(t *testing.T, want string, body func(k *Kernel, p *Proc, log func(string))) {
	t.Helper()
	k := NewKernel()
	defer k.Close()
	var got []string
	log := func(what string) { got = append(got, what+"@"+k.Now().String()) }
	k.Spawn("sleeper", func(p *Proc) { body(k, p, log) })
	k.Run()
	if fmt.Sprint(got) != want || k.WakesDrained() != 0 {
		t.Errorf("order %v with %d drained, want %s with 0", got, k.WakesDrained(), want)
	}
}

// TestDrainParksAtAnotherProcsWake: a sleep does not drain while another
// proc's wake is queued, even one due after its own (the gate), and a
// drained timer that wakes another proc parks the sleeper at that wake.
func TestDrainParksAtAnotherProcsWake(t *testing.T) {
	drainCase(t, "[timer@1.000us sleeper@3.000us other@5.000us]", func(k *Kernel, p *Proc, log func(string)) {
		k.Spawn("other", func(o *Proc) {
			o.Sleep(5 * Microsecond)
			log("other")
		})
		p.Sleep(0) // the other proc starts and parks
		k.After(Microsecond, "timer", func() { log("timer") })
		p.Sleep(3 * Microsecond)
		log("sleeper")
	})
	drainCase(t, "[timer@1.000us waiter@1.000us sleeper@3.000us]", func(k *Kernel, p *Proc, log func(string)) {
		sig := NewSignal()
		k.Spawn("waiter", func(w *Proc) {
			sig.Wait(w)
			log("waiter")
		})
		p.Sleep(0)
		k.After(Microsecond, "timer", func() { log("timer"); sig.Fire() })
		p.Sleep(3 * Microsecond)
		log("sleeper")
	})
}

// TestDrainParksAtSpawn: a drained timer that spawns a proc parks the
// sleeper at the new proc's start.
func TestDrainParksAtSpawn(t *testing.T) {
	drainCase(t, "[timer@1.000us child@1.000us sleeper@3.000us]", func(k *Kernel, p *Proc, log func(string)) {
		k.After(Microsecond, "timer", func() {
			log("timer")
			k.Spawn("child", func(*Proc) { log("child") })
		})
		p.Sleep(3 * Microsecond)
		log("sleeper")
	})
}

// TestDrainParksAtCancelable: a cancel-on-idle timer before the wake parks
// the sleeper, and the run loop runs it, since the wake is still pending.
func TestDrainParksAtCancelable(t *testing.T) {
	drainCase(t, "[idle@1.000us sleeper@3.000us]", func(k *Kernel, p *Proc, log func(string)) {
		k.SchedFor(GlobalEntity).AfterCancelable(Microsecond, "idle", func() { log("idle") })
		p.Sleep(3 * Microsecond)
		log("sleeper")
	})
}

// TestWorkerShardsNeverDrain: a sleeper with a timer before each wake
// drains on a plain kernel and never on one with worker shards, whether or
// not its epochs are enabled, nor after the phase-switch wake that
// AwaitSequential takes; the step count is the same on all three.
func TestWorkerShardsNeverDrain(t *testing.T) {
	run := func(workers int, parallel bool) (int64, int64) {
		k := newTestKernel(workers)
		defer k.Close()
		k.SchedFor(3).Spawn("alone", func(p *Proc) {
			for i := 0; i < 10; i++ {
				if i == 5 {
					k.AwaitSequential(p)
				}
				p.Sched().After(Microsecond, "timer", func() {})
				p.Sleep(2 * Microsecond)
			}
		})
		if parallel {
			k.EnableParallel()
		}
		k.Run()
		return k.Steps(), k.WakesDrained()
	}
	steps, drained := run(0, false)
	if steps != 21 || drained != 10 {
		t.Errorf("plain kernel: %d steps, %d drained; want 21 and 10", steps, drained)
	}
	for _, parallel := range []bool{false, true} {
		if s, n := run(2, parallel); s != steps || n != 0 {
			t.Errorf("2 workers, parallel %v: %d steps, %d drained; want %d and 0", parallel, s, n, steps)
		}
	}
}

// TestMisusedSleepBesideDrain: a proc whose wake is already pending does
// not drain and panics as before, and a drained timer that calls Sleep on
// the sleeper finds it parked with its wake pending, as on the run loop.
func TestMisusedSleepBesideDrain(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("misused", func(p *Proc) {
		k.After(Microsecond, "timer", func() {})
		p.readyAt(3*Microsecond, "stray")
		mustPanicWith(t, `double wake of proc "misused" (sleep)`, func() { p.Sleep(2 * Microsecond) })
		p.park() // the stray wake resumes it
	})
	k.Run()
	if k.WakesDrained() != 0 {
		t.Errorf("%d drained with a wake pending, want 0", k.WakesDrained())
	}
	k.Spawn("sleeper", func(p *Proc) {
		k.After(Microsecond, "foreign", func() {
			mustPanicWith(t, `double wake of proc "sleeper" (sleep)`, func() { p.Sleep(Microsecond) })
		})
		p.Sleep(2 * Microsecond)
	})
	k.Run()
	if k.WakesDrained() != 1 {
		t.Errorf("%d drained, want the sleeper's wake", k.WakesDrained())
	}
}

// TestDrainedPanicIsRaw: a timer that panics on a sleeper's drain reaches
// Run's caller as its own value, not as the sleeper's *ProcPanic, whether
// the sleeper was entered by its start or by a wake. The sleeper is left
// as the run loop leaves it: parked, its deferred functions not run, its
// wake queued, and the next Run resumes it there.
func TestDrainedPanicIsRaw(t *testing.T) {
	for _, switched := range []bool{false, true} {
		k := NewKernel()
		boom := errors.New("boom")
		deferred := false
		var resumed Time = -1
		k.Spawn("sleeper", func(p *Proc) {
			defer func() { deferred = true }()
			if switched {
				sig := NewSignal()
				k.After(0, "fire", sig.Fire)
				sig.Wait(p)
			}
			k.After(Microsecond, "boom", func() { panic(boom) })
			p.Sleep(3 * Microsecond)
			resumed = p.Now()
		})
		var got any
		func() {
			defer func() { got = recover() }()
			k.Run()
		}()
		if got != boom {
			t.Fatalf("switched %v: Run panicked with %#v, want the timer's own value", switched, got)
		}
		if deferred || resumed != -1 || fmt.Sprint(k.Stalled()) != "[sleeper]" || k.Now() != Time(Microsecond) {
			t.Errorf("switched %v: after the panic, deferred %v, resumed at %v, stalled %v, now %v; want the sleeper parked at 1us",
				switched, deferred, resumed, k.Stalled(), k.Now())
		}
		if n := k.Run(); n != 1 || resumed != Time(3*Microsecond) || !deferred || k.WakesDrained() != 0 {
			t.Errorf("switched %v: next Run ran %d, resumed at %v, deferred %v, %d drained; want 1, 3us, true, 0",
				switched, n, resumed, deferred, k.WakesDrained())
		}
		k.Close()
	}
}

// sleepRun is everything a program run can observe, and the schedule
// sequence it ends at, which the wakes run in place must also consume.
type sleepRun struct {
	log, trace, panics             []string
	ran                            []int64 // each Run call's count; -1 when it panicked
	steps                          int64
	now                            Time
	busy                           Duration // the one-CPU host's
	seq, inPlace, drained, scanned int64
	stalledProcs                   []string
}

// counted returns r without the counts of wakes taken without a switch,
// the one thing a run on another kernel, or with scans spelled as loops,
// may change.
func (r sleepRun) counted() sleepRun {
	r.inPlace, r.drained, r.scanned = 0, 0, 0
	return r
}

// runSleepProgram decodes prog into 1–6 procs and runs them on a kernel
// with the given worker count, epochs never enabled. The first byte picks
// the proc count; the rest is split evenly into per-proc (op, arg) pairs:
// sleep arg%8 ns, sleep 0, wait on or fire one of three signals, add to or
// wait on a counter, arm a timer that logs and fires a signal or adds to
// the counter, compute arg%4 ns on a one-CPU host, arm a timer that spawns
// a proc or panics, or scan: 1 + arg%5 checks of 1 + arg/8%3 ns of compute
// on the host, or of arg/8%4 ns of sleep, each reading the counter and the
// signals, and the last one panicking when arg ≥ 224 and the counter is
// odd. With scan false, a scan runs as the loop it stands for. Timers fire
// arg%8 ns on, often strictly between a sleep and its wake. Every action
// logs its proc and clock. The driver calls Run again after a panic until
// no event is left, recording each call's count and each panic's value;
// when the first byte is 128 or more it closes the kernel after the first
// call instead, and the procs it unwinds log their exits.
func runSleepProgram(prog []byte, workers int, scan bool) sleepRun {
	var r sleepRun
	if len(prog) == 0 {
		return r
	}
	procs := 1 + int(prog[0])%6
	closeEarly := prog[0] >= 128
	ops := prog[1:]
	per := len(ops) / procs / 2 * 2 // whole (op, arg) pairs
	k := NewKernel()
	if workers > 1 {
		k.Shard(ShardPlan{Workers: workers, Owner: func(e Entity) int { return 1 + int(e)%workers }, Lookahead: Nanosecond})
	}
	k.tracer = func(at Time, what string) { r.trace = append(r.trace, fmt.Sprintf("%d %s", int64(at), what)) }
	sigs := []*Signal{NewSignal(), NewSignal(), NewSignal()}
	ctr := NewCounter()
	host := NewHost(k, "host", 1)
	cpu := host.cpus
	timer := func(arg byte, fn func()) {
		k.After(Duration(arg%8)*Nanosecond, "timer", func() {
			r.log = append(r.log, fmt.Sprintf("timer %d@%d", arg, int64(k.Now())))
			fn()
		})
	}
	spawned := 0
	for i := 0; i < procs; i++ {
		code := ops[i*per : (i+1)*per]
		k.SchedFor(Entity(i+1)).Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { r.log = append(r.log, fmt.Sprintf("%s exit@%d", p.Name(), int64(k.Now()))) }()
			th := &Thread{proc: p, host: host}
			for j := 0; j+1 < len(code); j += 2 {
				op, arg := code[j]%sleepOps, code[j+1]
				switch op {
				case 0:
					p.Sleep(Duration(arg%8) * Nanosecond)
				case 1:
					p.Sleep(0)
				case 2:
					sigs[arg%3].Wait(p)
				case 3:
					sigs[arg%3].Fire()
				case 4:
					ctr.Add(1)
				case 5:
					ctr.WaitFor(p, ctr.Value()+int64(arg%2))
				case 6:
					timer(arg, func() {
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
				case 8:
					timer(arg, func() {
						spawned++
						k.Spawn(fmt.Sprintf("s%d", spawned), func(p *Proc) {
							p.Sleep(Duration(arg%3) * Nanosecond)
							r.log = append(r.log, fmt.Sprintf("%s@%d", p.Name(), int64(p.Now())))
						})
					})
				case 9:
					timer(arg, func() { panic(fmt.Sprintf("timer %d@%d", arg, int64(k.Now()))) })
				case 10, 11:
					n, base := 1+int(arg%5), ctr.Value()
					stop := func(i int) bool {
						if arg >= 224 && i == n-1 && ctr.Value()%2 == 1 {
							panic(fmt.Sprintf("check %d@%d", i, int64(p.Now())))
						}
						return ctr.Value() >= base+int64(i%3) && sigs[i%3].Fired()
					}
					var got int
					switch {
					case op == 10 && scan:
						got = th.ComputeScan(Duration(1+arg/8%3)*Nanosecond, 0, n, stop)
					case op == 11 && scan:
						got = p.SleepScan(Duration(arg/8%4)*Nanosecond, 0, n, stop)
					default:
						for got = 0; got < n; got++ {
							if op == 10 {
								th.Compute(Duration(1+arg/8%3) * Nanosecond)
							} else {
								p.Sleep(Duration(arg/8%4) * Nanosecond)
							}
							if stop(got) {
								break
							}
						}
					}
					r.log = append(r.log, fmt.Sprintf("%s scan %d of %d", p.Name(), got, n))
				}
				r.log = append(r.log, fmt.Sprintf("%s op%d@%d", p.Name(), op, int64(p.Now())))
			}
		})
	}
	for done := false; !done; done = closeEarly || !k.anyWork() {
		func() {
			defer func() {
				if v := recover(); v != nil {
					if pp, ok := v.(*ProcPanic); ok { // its stack differs from a loop's
						v = fmt.Sprintf("proc %s at %d: %v", pp.Proc, int64(pp.At), pp.Value)
					}
					r.ran = append(r.ran, -1)
					r.panics = append(r.panics, fmt.Sprintf("%T %v", v, v))
				}
			}()
			r.ran = append(r.ran, k.Run())
		}()
	}
	r.steps, r.now, r.seq, r.stalledProcs = k.Steps(), k.Now(), k.gseq, k.Stalled()
	r.inPlace, r.drained, r.scanned = k.WakesInPlace(), k.WakesDrained(), k.WakesScanned()
	k.Close()
	r.busy = host.BusyTime()
	return r
}

// sleepOps is the number of ops runSleepProgram decodes.
const sleepOps = 12

// FuzzSleepInPlace runs random programs on a plain kernel, where sleep
// wakes run in place, sleepers drain the callbacks due before their wakes
// and the kernel runs parked scans on, and on one with two worker shards
// that never enables its epochs, with every scan spelled as its loop: the
// same (time, seq) engine, where every wake switches. History, trace,
// panics, every Run's count, steps, clock, CPU time and stalled procs must
// agree, and so must a run of the scans on the sharded kernel, where the
// kernel runs parked scans on with every sleep pushed. The seed corpus
// runs under plain `go test`.
func FuzzSleepInPlace(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 3, 0, 0})                   // one proc, sleeps alone
	f.Add([]byte{1, 0, 2, 0, 2, 0, 2, 0, 2})             // two procs, tied sleeps
	f.Add([]byte{0, 6, 2, 0, 2, 6, 3, 0, 2})             // timers at the wake instant
	f.Add([]byte{2, 7, 1, 7, 2, 0, 1, 7, 3, 0, 0, 2, 1}) // compute contention
	f.Add([]byte{1, 2, 0, 0, 5, 0, 3, 3, 0})             // a wait, a fire, a sleep
	f.Add([]byte{0, 6, 1, 6, 2, 0, 5, 6, 3, 0, 7})       // timers strictly between sleep and wake
	f.Add([]byte{0, 6, 9, 0, 4, 6, 1, 0, 3})             // a drained timer fires a signal nobody waits on
	f.Add([]byte{1, 6, 10, 0, 5, 2, 1, 0, 0})            // a drained timer wakes the other proc
	f.Add([]byte{0, 8, 1, 0, 5, 0, 1})                   // a drained timer spawns a proc
	f.Add([]byte{0, 6, 2, 0, 5, 0, 2})                   // a drained timer adds to the counter
	f.Add([]byte{0, 9, 1, 6, 2, 0, 6, 0, 1})             // a drained timer panics
	f.Add([]byte{1, 9, 2, 0, 4, 0, 1, 9, 1, 0, 3})       // panics while the other proc sleeps
	f.Add([]byte{0, 0, 1, 6, 1, 6, 4, 0, 7, 0, 3})       // a sleep, then timers before the wakes
	f.Add([]byte{0, 0, 5, 6, 1, 0, 3, 6, 4, 0, 7})       // a drain, then a timer inside one
	f.Add([]byte{0, 0, 3, 8, 2, 6, 6, 9, 5, 0, 7})       // timers that spawn, count and panic
	// Scans beside another proc, so their sleeps park: the checks read a
	// counter and signals that timers and the other proc move.
	f.Add([]byte{1, 10, 19, 11, 28, 0, 1, 0, 1, 0, 1, 0, 1})            // scans beside a sleeper
	f.Add([]byte{1, 6, 10, 6, 3, 10, 19, 0, 1, 0, 1, 4, 0, 0, 1, 3, 0}) // timers and a proc move what the checks read
	f.Add([]byte{1, 10, 19, 0, 0, 0, 1, 7, 2})                          // a CPU waiter mid-scan on a one-CPU host
	f.Add([]byte{2, 10, 19, 10, 4, 0, 1, 10, 4, 0, 1, 7, 3})            // two scans and a compute on one CPU
	f.Add([]byte{1, 6, 4, 10, 19, 0, 2, 0, 2})                          // a timer moves the counter inside a scan
	f.Add([]byte{1, 0, 2, 10, 19, 0, 2, 0, 2})                          // a sleep, then a scan beside a sleeper
	f.Add([]byte{129, 9, 4, 10, 19, 0, 2, 0, 2})                        // a timer panics, then Close with a scanner parked
	f.Add([]byte{1, 4, 0, 10, 229, 0, 3, 0, 1})                         // a check that panics
	f.Add([]byte{1, 4, 0, 11, 253, 0, 3, 0, 1})                         // a sleep scan's check that panics
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
		plain, ref := runSleepProgram(prog, 0, true), runSleepProgram(prog, 2, false)
		if ref.inPlace != 0 || ref.drained != 0 || ref.scanned != 0 {
			t.Fatalf("%d wakes in place, %d drained, %d scanned on a kernel with worker shards and no scans",
				ref.inPlace, ref.drained, ref.scanned)
		}
		if !reflect.DeepEqual(plain.counted(), ref) {
			t.Fatalf("wakes without a switch diverged from switched ones:\n got: %+v\nwant: %+v", plain, ref)
		}
		if sharded := runSleepProgram(prog, 2, true); !reflect.DeepEqual(sharded.counted(), ref) {
			t.Fatalf("scans on a sharded kernel diverged from their loops:\n got: %+v\nwant: %+v", sharded, ref)
		}
	})
}
