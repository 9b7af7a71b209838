package cluster_test

import (
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// TestSteadyStateAllocs: once the free lists below the request handle have
// filled, a round trip allocates the four handles its callers receive — a
// SendReq and a RecvReq on each rank — and nothing else: no descriptor, no
// packet, no event, no closure, no fragment. AllocsPerRun runs inside rank
// 0's thread; the counter it reads is the process's, so rank 1's share of
// every round trip and both NICs' are in it.
func TestSteadyStateAllocs(t *testing.T) {
	const runs = 50
	cases := []struct {
		name   string
		scheme ptlelan4.Scheme
		size   int
	}{
		{"eager-64B", ptlelan4.RDMARead, 64},
		{"rndv-64KB-read", ptlelan4.RDMARead, 64 << 10},
		{"rndv-64KB-write", ptlelan4.RDMAWrite, 64 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ptlelan4.BestOptions(tc.scheme) // chained FIN, no tracer
			c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling}, 2)
			warm := c.Cfg.QueueSlots
			dt := datatype.Contiguous(tc.size)
			var bufs [2][2][]byte
			for r := range bufs {
				bufs[r][0], bufs[r][1] = make([]byte, tc.size), make([]byte, tc.size)
			}
			allocs := -1.0
			c.Launch(func(p *cluster.Proc) {
				out, in := bufs[p.Rank][0], bufs[p.Rank][1]
				roundTrip := func() {
					if p.Rank == 0 {
						p.Stack.Send(p.Th, 1, 7, 0, out, dt).Wait(p.Th)
					}
					p.Stack.Recv(p.Th, 1-p.Rank, 7, 0, in, dt).Wait(p.Th)
					if p.Rank == 1 {
						p.Stack.Send(p.Th, 0, 7, 0, out, dt).Wait(p.Th)
					}
				}
				for i := 0; i < warm; i++ {
					roundTrip()
				}
				if p.Rank == 0 {
					allocs = testing.AllocsPerRun(runs, roundTrip)
				} else {
					for i := 0; i < runs+1; i++ { // AllocsPerRun's own warm-up run
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
			if allocs != 4 {
				t.Errorf("%v objects allocated per warmed-up round trip, want the 4 request handles", allocs)
			}
		})
	}
}
