package simtime

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkQueue is one pop and one push per op on an event queue holding
// depth events, each push 0–20 µs after the event just popped: a shallow
// queue (depth 1), alltoall-32's average (300) and a deep one (4096). No
// kernel and no proc.
func BenchmarkQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Duration, 4096)
	for i := range delays {
		delays[i] = Duration(rng.Int63n(int64(20*Microsecond) + 1))
	}
	for _, depth := range []int{1, 300, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var q eventQueue
			var seq int64
			for ; seq < int64(depth); seq++ {
				q.push(event{at: Time(delays[seq]), seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			var e event
			for i := 0; i < b.N; i++ {
				q.pop(&e)
				seq++
				q.push(event{at: e.at.Add(delays[seq%4096]), seq: seq})
			}
		})
	}
}

// BenchmarkHandoff is one Sleep per op: one kernel event and one switch
// into the proc and back. Every proc sleeps the same d, so another proc's
// wake is always due by the sleeper's: no wake runs in place and no sleep
// drains. At 1024 procs the event queue is deep and no proc's stack is
// warm.
func BenchmarkHandoff(b *testing.B) {
	for _, procs := range []int{2, 1024} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			k := NewKernel()
			defer k.Close()
			each := b.N/procs + 1
			for i := 0; i < procs; i++ {
				k.Spawn("sleeper", func(p *Proc) {
					for j := 0; j < each; j++ {
						p.Sleep(1)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
			if n := k.WakesInPlace(); n != 0 {
				b.Fatalf("%d wakes ran in place", n)
			}
			if n := k.WakesDrained(); n != 0 {
				b.Fatalf("%d wakes drained", n)
			}
		})
	}
}

// BenchmarkSleepInPlace is one Sleep per op by a proc alone in the kernel:
// its wake is always the next event, so it runs in place with no switch.
func BenchmarkSleepInPlace(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("alone", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	if n := k.WakesInPlace(); n != int64(b.N) {
		b.Fatalf("%d of %d wakes ran in place", n, b.N)
	}
}

// BenchmarkSleepDrained is one Sleep per op by a proc beside one parked
// for good, with a timer due between the sleep and its wake: the sleeper
// runs the timer itself and takes its wake with no switch.
func BenchmarkSleepDrained(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	tick := func() {}
	k.Spawn("parked", func(p *Proc) { NewSignal().Wait(p) })
	k.Spawn("sleeper", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			k.After(1, "timer", tick)
			p.Sleep(2)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	if n := k.WakesDrained(); n != int64(b.N) {
		b.Fatalf("%d of %d wakes drained", n, b.N)
	}
}

// BenchmarkSpawnClose is a kernel's whole life per op: spawn 64 procs, run
// until they are all parked, unwind them.
func BenchmarkSpawnClose(b *testing.B) {
	const procs = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		sig := NewSignal()
		for j := 0; j < procs; j++ {
			k.Spawn("parked", func(p *Proc) { sig.Wait(p) })
		}
		k.Run()
		k.Close()
	}
}
