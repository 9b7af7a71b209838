package experiments

import (
	"runtime"
	"testing"
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
