package mpi_test

import (
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
)

// TestWorldCollectivesSharded builds every rank's world inside a worker
// epoch of a two-shard kernel, where both shards read and grow the
// Universe's shared rank table at once, then runs the world collectives on host
// trees and on NIC trees and a wildcard ring whose statuses go through
// commStatus. make check runs it under the race detector.
func TestWorldCollectivesSharded(t *testing.T) {
	const n = 8
	for _, hw := range []bool{false, true} {
		opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
		c := cluster.New(cluster.Spec{Elan: &opts, Progress: pml.Polling, DTP: true, HWColl: hw, Shards: 2}, n)
		uni := mpi.NewUniverse()
		var failed [n]string
		c.Launch(func(p *cluster.Proc) {
			// Past the bring-up rendezvous, so that the worlds are built
			// in the same worker epoch on both shards.
			p.Th.Compute(simtime.Microsecond)
			w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, n)
			if hw {
				w.SetHWColl(p.Elan)
			}
			comm, me := w.Comm(), p.Rank
			fail := func(what string) {
				if failed[me] == "" {
					failed[me] = what
				}
			}
			for i := 0; i < 3; i++ {
				comm.Barrier()
				out := make([]byte, 8)
				comm.Allreduce(f64buf(float64(me+i)), out, mpi.OpSumF64)
				if f64of(out) != float64(n*(n-1)/2+n*i) {
					fail("allreduce")
				}
				buf := make([]byte, 64)
				if me == i {
					buf[0] = byte(i + 1)
				}
				comm.Bcast(i, buf, datatype.Contiguous(len(buf)))
				if buf[0] != byte(i+1) {
					fail("bcast")
				}
				one := datatype.Contiguous(1)
				rq := comm.Irecv(mpi.AnySource, i, buf[:1], one)
				comm.Send((me+1)%n, i, []byte{byte(me)}, one)
				if st := rq.Wait(); st.Source != (me+n-1)%n || buf[0] != byte(st.Source) {
					fail("ring status")
				}
			}
			for r := 0; r < n; r++ {
				if comm.WorldRank(r) != r {
					fail("world rank table")
				}
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		for r, what := range failed {
			if what != "" {
				t.Errorf("hw=%v rank %d: %s wrong", hw, r, what)
			}
		}
	}
}
