package cluster_test

import (
	"runtime"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/experiments"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// BenchmarkBringup is the set-up of the 1024-rank collective workloads by
// itself: RTE joins, module init and connection setup on the restricted
// topology they run on (experiments.CollPeers), then the mpi-init
// rendezvous and an empty body. allocs/peer is the bring-up's mallocs over
// the connections it makes; a connected peer costs no allocation, so what
// it reads is the per-rank cost spread over about 21 peers a rank.
func BenchmarkBringup(b *testing.B) {
	const n = 1024
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	spec := cluster.Spec{Elan: &o, Progress: pml.Polling, Peers: experiments.CollPeers}
	peers := 0
	for r := 0; r < n; r++ {
		peers += len(experiments.CollPeers(r, n))
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		c := cluster.New(spec, n)
		c.Launch(func(*cluster.Proc) {})
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*peers), "allocs/peer")
}
