package simtime

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []string
	k.At(10*Microsecond.asTime(), "c", func() { got = append(got, "c") })
	k.At(5*Microsecond.asTime(), "a", func() { got = append(got, "a") })
	k.At(5*Microsecond.asTime(), "b", func() { got = append(got, "b") })
	k.Run()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if k.Now() != 10*Microsecond.asTime() {
		t.Fatalf("now = %v, want 10us", k.Now())
	}
}

// asTime is a test helper converting a duration offset to an absolute time
// from zero.
func (d Duration) asTime() Time { return Time(d) }

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(Time(Microsecond), fmt.Sprintf("e%d", i), func() { got = append(got, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events executed out of schedule order: %v", got)
	}
}

func TestAfterFromInsideEvent(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.After(Microsecond, "outer", func() {
		times = append(times, k.Now())
		k.After(2*Microsecond, "inner", func() {
			times = append(times, k.Now())
		})
	})
	k.Run()
	if len(times) != 2 || times[0] != Time(Microsecond) || times[1] != Time(3*Microsecond) {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.After(10*Microsecond, "advance", func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(Time(Microsecond), "late", func() {})
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		wake = p.Now()
	})
	k.Run()
	if wake != Time(7*Microsecond) {
		t.Fatalf("woke at %v, want 7us", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, fmt.Sprintf("a%d@%v", i, p.Now()))
			p.Sleep(2 * Microsecond)
		}
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(Microsecond)
		for i := 0; i < 3; i++ {
			got = append(got, fmt.Sprintf("b%d@%v", i, p.Now()))
			p.Sleep(2 * Microsecond)
		}
	})
	k.Run()
	want := []string{
		"a0@0.000us", "b0@1.000us", "a1@2.000us",
		"b1@3.000us", "a2@4.000us", "b2@5.000us",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaving = %v, want %v", got, want)
	}
}

func TestSignalBroadcastAndLateWait(t *testing.T) {
	k := NewKernel()
	sig := NewSignal()
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(Microsecond)
		sig.Fire()
		sig.Fire() // second fire is a no-op
	})
	k.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	// A late waiter must not block.
	done := false
	k.Spawn("late", func(p *Proc) {
		sig.Wait(p)
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("late waiter blocked on fired signal")
	}
}

func TestCounter(t *testing.T) {
	k := NewKernel()
	c := NewCounter()
	var reached Time
	k.Spawn("waiter", func(p *Proc) {
		c.WaitFor(p, 3)
		reached = p.Now()
	})
	k.Spawn("adder", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Microsecond)
			c.Add(1)
		}
	})
	k.Run()
	if reached != Time(3*Microsecond) {
		t.Fatalf("reached at %v, want 3us", reached)
	}
	if c.Value() != 3 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("t", func(p *Proc) {
			p.Sleep(Duration(i) * Nanosecond) // stagger arrival
			sem.Acquire(p)
			order = append(order, i)
			p.Sleep(Microsecond)
			sem.Release()
		})
	}
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("acquisition order %v, want FIFO", order)
	}
}

func TestHostCPUContention(t *testing.T) {
	// Two CPUs, four threads each computing 10us: finish at 10us and 20us
	// in two waves.
	k := NewKernel()
	h := NewHost(k, "n0", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		h.Spawn("worker", func(th *Thread) {
			th.Compute(10 * Microsecond)
			finish = append(finish, th.Now())
		})
	}
	k.Run()
	want := []Time{Time(10 * Microsecond), Time(10 * Microsecond), Time(20 * Microsecond), Time(20 * Microsecond)}
	if !reflect.DeepEqual(finish, want) {
		t.Fatalf("finish times %v, want %v", finish, want)
	}
	if h.BusyTime() != 40*Microsecond {
		t.Fatalf("busy = %v, want 40us", h.BusyTime())
	}
}

func TestHostBlockedThreadFreesCPU(t *testing.T) {
	k := NewKernel()
	h := NewHost(k, "n0", 1)
	sig := NewSignal()
	var computeDone Time
	h.Spawn("blocker", func(th *Thread) {
		th.BlockOn(sig, 0) // parks without holding the CPU
	})
	h.Spawn("worker", func(th *Thread) {
		th.Compute(5 * Microsecond)
		computeDone = th.Now()
		sig.Fire()
	})
	k.Run()
	if computeDone != Time(5*Microsecond) {
		t.Fatalf("worker finished at %v; blocked thread held the CPU", computeDone)
	}
}

// Property: regardless of the sleep durations chosen, procs complete in
// nondecreasing order of their sleep duration (stable for ties by spawn
// order), and the final clock equals the max duration.
func TestSleepCompletionOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := NewKernel()
		type done struct {
			idx int
			d   Duration
		}
		var finished []done
		for i, r := range raw {
			i, d := i, Duration(r)*Nanosecond
			k.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, done{i, d})
			})
		}
		k.Run()
		if len(finished) != len(raw) {
			return false
		}
		for i := 1; i < len(finished); i++ {
			a, b := finished[i-1], finished[i]
			if a.d > b.d {
				return false
			}
			if a.d == b.d && a.idx > b.idx {
				return false
			}
		}
		var maxd Duration
		for _, r := range raw {
			if d := Duration(r) * Nanosecond; d > maxd {
				maxd = d
			}
		}
		return k.Now() == Time(maxd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAt(t *testing.T) {
	if d := BytesAt(1000, 1e9); d != Microsecond {
		t.Fatalf("1000B at 1GB/s = %v, want 1us", d)
	}
	if d := BytesAt(0, 1e9); d != 0 {
		t.Fatalf("0 bytes took %v", d)
	}
	if d := BytesAt(100, 0); d != 0 {
		t.Fatalf("zero rate took %v", d)
	}
}

func TestMicrosRoundTrip(t *testing.T) {
	d := Micros(3.25)
	if d.Micros() != 3.25 {
		t.Fatalf("round trip = %v", d.Micros())
	}
	if Time(d).Micros() != 3.25 {
		t.Fatalf("time micros = %v", Time(d).Micros())
	}
}
