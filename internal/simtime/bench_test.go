package simtime

import (
	"fmt"
	"testing"
)

// BenchmarkHandoff is one Sleep per op: one kernel event and one switch
// into the proc and back. At 1024 procs the event heap is deep and no
// proc's stack is warm.
func BenchmarkHandoff(b *testing.B) {
	for _, procs := range []int{2, 1024} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			k := NewKernel()
			defer k.Close()
			each := b.N/procs + 1
			for i := 0; i < procs; i++ {
				d := Duration(1 + i%7)
				k.Spawn("sleeper", func(p *Proc) {
					for j := 0; j < each; j++ {
						p.Sleep(d)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
		})
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
