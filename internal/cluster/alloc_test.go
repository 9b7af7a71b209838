package cluster_test

import (
	"runtime"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// TestSteadyStateAllocs: once the free lists have filled, a round trip
// allocates nothing — no descriptor, packet, event, closure or fragment
// below the request handle, and no request either. The stack owns request
// state and takes it back at the Wait that sees completion; the handle
// itself stays in the caller's frame because Stack.Send and Stack.Recv
// inline and send/recv never keep it, so `Send(...).Wait(th)` makes no
// heap object. A constructor that stops inlining, or an h stored anywhere,
// reads 2 or 4 here. The MPI-level case holds Comm.Send/Comm.Recv to the
// same: a blocking call waits on the pml handle and makes no Request.
//
// The counters are the process's, read inside rank 0's thread, so rank 1's
// share of every round trip and both NICs' are in them. The race build
// (make check) inlines the same and reads 0 too.
func TestSteadyStateAllocs(t *testing.T) {
	const runs = 50
	cases := []struct {
		name   string
		scheme ptlelan4.Scheme
		size   int
		mpi    bool
	}{
		{"eager-64B", ptlelan4.RDMARead, 64, false},
		{"rndv-64KB-read", ptlelan4.RDMARead, 64 << 10, false},
		{"rndv-64KB-write", ptlelan4.RDMAWrite, 64 << 10, false},
		{"mpi-eager-64B", ptlelan4.RDMARead, 64, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ptlelan4.BestOptions(tc.scheme) // chained FIN, no tracer
			c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling}, 2)
			warm := c.Cfg.QueueSlots
			dt := datatype.Contiguous(tc.size)
			uni := mpi.NewUniverse()
			var bufs [2][2][]byte
			for r := range bufs {
				bufs[r][0], bufs[r][1] = make([]byte, tc.size), make([]byte, tc.size)
			}
			objs, bytes := uint64(1), uint64(1)
			c.Launch(func(p *cluster.Proc) {
				out, in := bufs[p.Rank][0], bufs[p.Rank][1]
				comm := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, 2).Comm()
				send := func(dst int) { p.Stack.Send(p.Th, dst, 7, 0, out, dt).Wait(p.Th) }
				recv := func(src int) { p.Stack.Recv(p.Th, src, 7, 0, in, dt).Wait(p.Th) }
				if tc.mpi {
					send = func(dst int) { comm.Send(dst, 7, out, dt) }
					recv = func(src int) { comm.Recv(src, 7, in, dt) }
				}
				roundTrip := func() {
					if p.Rank == 0 {
						send(1)
					}
					recv(1 - p.Rank)
					if p.Rank == 1 {
						send(0)
					}
				}
				for i := 0; i < warm; i++ {
					roundTrip()
				}
				if p.Rank == 0 {
					objs, bytes = allocsPerRun(runs, roundTrip)
				} else {
					for i := 0; i < runs+1; i++ { // allocsPerRun's own warm-up run
						roundTrip()
					}
				}
				// Rank 1 runs ahead of rank 0 by the receive it posts for the
				// next round trip: one more keeps the last measured one whole.
				roundTrip()
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if objs != 0 || bytes != 0 {
				t.Errorf("%v objects, %v B allocated per warmed-up round trip, want 0", objs, bytes)
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun that reports bytes as well: the
// objects and bytes allocated per call of f after one warm-up call, means
// truncated to integers as AllocsPerRun's are, so that the runtime's own
// occasional object (one 48-byte one in some 30 runs of 50 round trips)
// does not read as a per-message allocation.
func allocsPerRun(runs uint64, f func()) (objs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / runs, (m1.TotalAlloc - m0.TotalAlloc) / runs
}
