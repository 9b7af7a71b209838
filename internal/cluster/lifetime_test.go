package cluster_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// TestNoGoroutineOutlivesRun: the cluster owns its kernel and Run closes
// it, so whatever the run left parked — module progress threads that the
// application never finalized, the participants of a deadlock — is
// unwound, and a simulation costs nothing once it has returned.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	twoThreads := ptlelan4.BestOptions(ptlelan4.RDMARead)
	twoThreads.CQ = ptlelan4.TwoQueue
	twoThreads.Threads = 2
	cases := []struct {
		name     string
		spec     cluster.Spec
		procs    int
		deadlock bool
	}{
		{"polling-2", elanSpec(), 2, false},
		{"two-threads-2", cluster.Spec{Elan: &twoThreads, Progress: pml.Threaded}, 2, false},
		{"shards2-64", func() cluster.Spec { s := elanSpec(); s.Shards = 2; return s }(), 64, false},
		{"deadlock-2", cluster.Spec{Elan: &twoThreads, Progress: pml.Threaded}, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The goroutines of an earlier run — the epoch workers Close
			// ended, unwound procs — may still be returning: count once the
			// number has held for 5 ms.
			before := runtime.NumGoroutine()
			for i, held := 0, 0; i < 200 && held < 5; i++ {
				time.Sleep(time.Millisecond)
				if n := runtime.NumGoroutine(); n == before {
					held++
				} else {
					before, held = n, 0
				}
			}
			c := cluster.New(tc.spec, tc.procs)
			dt := datatype.Contiguous(4096)
			c.Launch(func(p *cluster.Proc) {
				next, prev := (p.Rank+1)%tc.procs, (p.Rank+tc.procs-1)%tc.procs
				r := p.Stack.Recv(p.Th, prev, 0, 0, make([]byte, 4096), dt)
				p.Stack.Send(p.Th, next, 0, 0, make([]byte, 4096), dt).Wait(p.Th)
				r.Wait(p.Th)
				if tc.deadlock {
					// A receive nobody sends to.
					p.Stack.Recv(p.Th, prev, 99, 0, make([]byte, 4096), dt).Wait(p.Th)
				}
				// No Finalize: the progress threads stay parked in their queues.
			})
			err := c.Run()
			switch {
			case !tc.deadlock && err != nil:
				t.Fatal(err)
			case tc.deadlock && (err == nil || !strings.Contains(err.Error(), "rank0") || !strings.Contains(err.Error(), "rank1")):
				t.Fatalf("deadlocked run reported %v, want both ranks named", err)
			}
			n := runtime.NumGoroutine()
			for i := 0; i < 200 && n > before; i++ {
				// The epoch workers Close ended are still returning when it
				// does.
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n != before {
				t.Errorf("%d goroutines after Run, %d before New", n, before)
			}
		})
	}
}

// TestRegistrationsReturned: the PML transforms a buffer to E4 format for
// every send and every matched rendezvous receive, and hands the mapping
// back when the request completes — after the last RDMA that can name it,
// under either scheme — so a context's MMU holds the messages in flight, not
// one entry per message of the run.
func TestRegistrationsReturned(t *testing.T) {
	for _, scheme := range []ptlelan4.Scheme{ptlelan4.RDMARead, ptlelan4.RDMAWrite} {
		for _, inline := range []bool{false, true} {
			o := ptlelan4.BestOptions(scheme)
			o.InlineRndv = inline
			c := cluster.New(cluster.Spec{Elan: &o}, 2)
			var before, after [2]int
			c.Launch(func(p *cluster.Proc) {
				mmu := p.State.Ctx.MMU()
				before[p.Rank] = mmu.Regions()
				pingpong := func(n, size int) {
					dt := datatype.Contiguous(size)
					out, in := make([]byte, size), make([]byte, size)
					for i := 0; i < n; i++ {
						if p.Rank == 0 {
							p.Stack.Send(p.Th, 1, i, 0, out, dt).Wait(p.Th)
						}
						p.Stack.Recv(p.Th, 1-p.Rank, i, 0, in, dt).Wait(p.Th)
						if p.Rank == 1 {
							p.Stack.Send(p.Th, 0, i, 0, out, dt).Wait(p.Th)
						}
					}
				}
				pingpong(1000, 256)
				pingpong(100, 64<<10)
				after[p.Rank] = mmu.Regions()
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if after != before {
				t.Errorf("scheme %v, inline %v: live regions per rank went from %v to %v over 1100 round trips",
					scheme, inline, before, after)
			}
		}
	}
}
