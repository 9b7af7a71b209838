package experiments

import (
	"runtime"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// TestRepeatedSweepsHoldNothing: every kernel the figure sweeps create is
// closed by its owner, so running the whole replication set over and over
// in one process leaves neither goroutines nor heap behind. (Before
// kernels were closed, each pass pinned hundreds of parked goroutines and
// everything they referenced, and both numbers grew linearly.)
func TestRepeatedSweepsHoldNothing(t *testing.T) {
	const passes = 20
	cfg := Config{Iters: 2, Warmup: 1}
	pass := func() (int, uint64) {
		All(cfg)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return runtime.NumGoroutine(), m.HeapInuse
	}
	pass() // pools, lazily built tables
	g0, h0 := pass()
	var g, h uint64
	for i := 0; i < passes; i++ {
		gi, hi := pass()
		g, h = uint64(gi), hi
	}
	t.Logf("goroutines %d -> %d, heap in use %d KB -> %d KB over %d passes", g0, g, h0>>10, h>>10, passes)
	if int(g) > g0 {
		t.Errorf("goroutines grew from %d to %d over %d passes", g0, g, passes)
	}
	if h > h0+h0/4+(1<<20) {
		t.Errorf("heap in use grew from %d KB to %d KB over %d passes", h0>>10, h>>10, passes)
	}
}

// TestFig10HarnessReturnsRegistrations: when a run of the Fig. 10 ping-pong
// has returned, under either scheme and either protocol, neither rank's MMU
// maps anything — every request handed its registration back as it
// completed (the table used to gain an entry per message and keep it).
func TestFig10HarnessReturnsRegistrations(t *testing.T) {
	for _, scheme := range []ptlelan4.Scheme{ptlelan4.RDMARead, ptlelan4.RDMAWrite} {
		for _, size := range []int{1024, 64 << 10} {
			c := cluster.New(elanSpec(ptlelan4.BestOptions(scheme), false, pml.Polling), 2)
			pingPongOn(c, 1, size, 50, Warmup)
			for _, p := range c.Procs() {
				if n := p.State.Ctx.MMU().Regions(); n != 0 {
					t.Errorf("%v, %d bytes: rank %d is left with %d registered regions", scheme, size, p.Rank, n)
				}
			}
		}
	}
}
