package main

import (
	"fmt"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/ptlelan4"
)

// TestTwoRailsComplete runs the clustersim cells that a wait reading the
// activity word only after its progress sweep lost a wakeup in (ROADMAP 8):
// a NIC deposit on one rail counted while the other rail was being polled
// was waited past, and the run ended in a deadlock. Each is the run of
//
//	clustersim -rails 2 -size 64
//	clustersim -pattern alltoall -rails 2 -threads 0 -iters 3 -procs P -size S
//
// built from the spec the flags describe.
func TestTwoRailsComplete(t *testing.T) {
	for _, c := range []struct{ procs, size, iters int }{
		{4, 64, 10},
		{4, 2048, 3},
		{4, 65536, 3},
		{5, 2048, 3},
	} {
		t.Run(fmt.Sprintf("procs=%d/size=%d/iters=%d", c.procs, c.size, c.iters), func(t *testing.T) {
			spec, err := specFor(ptlelan4.RDMARead, 0, 2, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			cl := cluster.New(spec, c.procs)
			cl.Launch(func(p *cluster.Proc) { runPattern(p, c.procs, "alltoall", c.size, c.iters) })
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
