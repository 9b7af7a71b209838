package simtime

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestProcIsEightyBytes: a proc carries one pointer to its scan state, made
// by its first scan that parks, not the state itself; there are 1024 procs
// and more in the large runs, nearly all of which only ever resume.
func TestProcIsEightyBytes(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n != 80 {
		t.Fatalf("a proc is %d bytes, want 80", n)
	}
}

// scanBeside runs proc "scanner" computing a four-check scan of 1 µs
// checks on a host with cpus CPUs, beside proc "other", which starts at
// the same instant and runs body. Check i stops the scan when stop(i).
// It returns the scan's result, when it returned, and
// the closed kernel, whose counters stay readable.
func scanBeside(t *testing.T, cpus int, stop func(i int) bool, body func(th *Thread)) (got int, at Time, k *Kernel) {
	t.Helper()
	k = NewKernel()
	defer k.Close()
	h := NewHost(k, "h", cpus)
	h.Spawn("scanner", func(th *Thread) {
		got = th.ComputeScan(Microsecond, 0, 4, stop)
		at = th.Now()
	})
	h.Spawn("other", body)
	k.Run()
	return got, at, k
}

// TestScanRunsOnBesideASleeper: a sleeper's wake ties with every check,
// so each of the scanner's computes parks; the kernel evaluates checks 0,
// 1 and 2 at their wakes and computes on, and switches into the scanner at
// the last check, or at the check that stops the scan.
func TestScanRunsOnBesideASleeper(t *testing.T) {
	sleeper := func(th *Thread) {
		for range 6 {
			th.Proc().Sleep(Microsecond)
		}
	}
	for _, tc := range []struct {
		stopAt         int
		got            int
		at             Time
		scanned, steps int64 // steps: two starts, six sleeps, a wake per check
	}{
		{-1, 4, Time(4 * Microsecond), 3, 12},
		{2, 2, Time(3 * Microsecond), 2, 11},
		{0, 0, Time(Microsecond), 0, 9},
	} {
		got, at, k := scanBeside(t, 2, func(i int) bool { return i == tc.stopAt }, sleeper)
		if scanned, steps := k.WakesScanned(), k.Steps(); got != tc.got || at != tc.at || scanned != tc.scanned || steps != tc.steps {
			t.Errorf("stop at %d: returned %d at %v with %d wakes scanned in %d steps, want %d at %v with %d in %d",
				tc.stopAt, got, at, scanned, steps, tc.got, tc.at, tc.scanned, tc.steps)
		}
	}
}

// TestScanSwitchesAtCPUWaiter: on a one-CPU host another thread waits for
// the CPU at the end of every check, so the kernel hands every wake to the
// scanner, which releases the CPU to the waiter as the loop would.
func TestScanSwitchesAtCPUWaiter(t *testing.T) {
	got, at, k := scanBeside(t, 1, func(int) bool { return false }, func(th *Thread) {
		for range 4 {
			th.Compute(Microsecond)
		}
	})
	if got != 4 || at != Time(7*Microsecond) || k.WakesScanned() != 0 {
		t.Errorf("returned %d at %v with %d wakes scanned, want 4 at 7us with none", got, at, k.WakesScanned())
	}
}

// TestScanCheckPanicIsProcPanic: a check that panics at a wake the kernel
// holds is evaluated again by the scanner, whose body panics as the loop's
// would: Run's caller gets the scanner's *ProcPanic at that instant.
func TestScanCheckPanicIsProcPanic(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	calls := 0
	h := NewHost(k, "h", 2)
	h.Spawn("scanner", func(th *Thread) {
		th.ComputeScan(Microsecond, 0, 4, func(i int) bool {
			if i == 1 {
				calls++
				panic(fmt.Sprint("check ", i))
			}
			return false
		})
	})
	h.Spawn("other", func(th *Thread) {
		for range 4 {
			th.Proc().Sleep(Microsecond)
		}
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	pp, ok := got.(*ProcPanic)
	if !ok || pp.Proc != "h/scanner#1" || pp.Value != "check 1" || pp.At != Time(2*Microsecond) {
		t.Fatalf("Run panicked with %v, want the scanner's ProcPanic of check 1 at 2us", got)
	}
	if calls != 2 || k.WakesScanned() != 1 {
		t.Errorf("check 1 ran %d times with %d wakes scanned; want twice (kernel, then scanner) and 1", calls, k.WakesScanned())
	}
}

// TestCloseUnwindsParkedScanner: Close unwinds a scanner parked in one of
// its sleeps, here left there by another proc's panic, running its
// deferred functions, and leaks no goroutine.
func TestCloseUnwindsParkedScanner(t *testing.T) {
	before := steadyGoroutines()
	k := NewKernel()
	unwound, after := false, false
	k.Spawn("scanner", func(p *Proc) {
		defer func() { unwound = true }()
		p.SleepScan(Microsecond, 0, 4, func(int) bool { return false })
		after = true
	})
	k.Spawn("other", func(p *Proc) {
		for range 2 {
			p.Sleep(Microsecond)
		}
		p.Sleep(Microsecond / 2)
		panic("other")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if pp, ok := got.(*ProcPanic); !ok || pp.Proc != "other" || pp.At != Time(2*Microsecond+Microsecond/2) {
		t.Fatalf("Run panicked with %v, want the other proc's ProcPanic at 2.5us", got)
	}
	if k.WakesScanned() != 2 || fmt.Sprint(k.Stalled()) != "[scanner]" {
		t.Fatalf("at 2.5us: %d wakes scanned, stalled %v; want 2 and the scanner parked", k.WakesScanned(), k.Stalled())
	}
	k.Close()
	if !unwound || after {
		t.Errorf("deferred function ran %v, code after the scan ran %v; want true, false", unwound, after)
	}
	if n := goroutinesSettleTo(before); n != before {
		t.Errorf("%d goroutines after Close, %d before NewKernel", n, before)
	}
}

// TestScanTakesNextWakesInPlace: once the sleeper is done, the wakes the
// kernel's scan would push are the next events, so it takes them in place,
// as the proc's own sleeps would be; only a wake after which the scanner
// stays parked counts as scanned, here the first.
func TestScanTakesNextWakesInPlace(t *testing.T) {
	got, at, k := scanBeside(t, 2, func(int) bool { return false }, func(th *Thread) {
		th.Proc().Sleep(Microsecond)
	})
	if got != 4 || at != Time(4*Microsecond) || k.WakesScanned() != 1 || k.WakesInPlace() != 2 || k.Steps() != 7 {
		t.Errorf("returned %d at %v with %d wakes scanned, %d in place, %d steps; want 4 at 4us, 1, 2, 7",
			got, at, k.WakesScanned(), k.WakesInPlace(), k.Steps())
	}
}

// TestScanSleepDrains: a scan's further sleeps follow the rule of the
// proc's own. The scanner parks in its first sleep, beside the other
// proc's start; the other proc arms a timer and returns. At the first
// wake the kernel runs the scan on, and the sleep after check 0 has that
// timer due before its wake and no proc queued, so the kernel runs the
// timer itself and takes the wake with no push: a drained wake, where the
// order, the steps and the end instant are the loop's spelled out.
func TestScanSleepDrains(t *testing.T) {
	run := func(scan bool) (log []string, k *Kernel) {
		k = NewKernel()
		defer k.Close()
		note := func(what string) { log = append(log, what+"@"+k.Now().String()) }
		stop := func(i int) bool {
			note(fmt.Sprint("check ", i))
			return false
		}
		k.Spawn("scanner", func(p *Proc) {
			got := 0
			if scan {
				got = p.SleepScan(Microsecond, 0, 4, stop)
			} else {
				for got = 0; got < 4; got++ {
					p.Sleep(Microsecond)
					if stop(got) {
						break
					}
				}
			}
			note(fmt.Sprint("returned ", got))
		})
		k.Spawn("other", func(*Proc) {
			k.After(Microsecond+Microsecond/2, "timer", func() { note("timer") })
		})
		k.Run()
		return log, k
	}
	want, loop := run(false)
	got, k := run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) || k.Steps() != loop.Steps() || k.Now() != loop.Now() {
		t.Errorf("scan: %v in %d steps to %v; the loop: %v in %d steps to %v",
			got, k.Steps(), k.Now(), want, loop.Steps(), loop.Now())
	}
	if k.WakesDrained() != 1 || k.WakesScanned() != 0 || k.WakesInPlace() != 2 {
		t.Errorf("%d wakes drained, %d scanned, %d in place; want 1, 0, 2",
			k.WakesDrained(), k.WakesScanned(), k.WakesInPlace())
	}
}
