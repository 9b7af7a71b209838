package experiments

import (
	"strings"
	"sync"
	"testing"

	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// TestConcurrentSimulationsShareNothing runs two complete simulations on
// bare goroutines (no engine in between) and checks they reproduce the
// sequential result. Under `go test -race` this is the proof that no
// package-level state — route memos, bufpool free lists, NIC or kernel
// internals — leaks between concurrently running kernels.
func TestConcurrentSimulationsShareNothing(t *testing.T) {
	spec := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling)
	tcpSpec := elanSpec(base(ptlelan4.RDMAWrite), true, pml.Polling)
	wantA := OpenMPIPingPong(spec, 4096, 30)
	wantB := OpenMPIPingPong(tcpSpec, 512, 30)
	for round := 0; round < 3; round++ {
		var gotA, gotB float64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); gotA = OpenMPIPingPong(spec, 4096, 30) }()
		go func() { defer wg.Done(); gotB = OpenMPIPingPong(tcpSpec, 512, 30) }()
		wg.Wait()
		if gotA != wantA || gotB != wantB {
			t.Fatalf("concurrent round %d diverged: %v/%v, want %v/%v",
				round, gotA, gotB, wantA, wantB)
		}
	}
}

// TestSweepStatsAccumulate checks the observability surface: a config
// with a Stats sink reports jobs, simulated events and pool traffic.
func TestSweepStatsAccumulate(t *testing.T) {
	var st parsweep.Stats
	cfg := DefaultConfig().WithIters(5)
	cfg.Workers = 2
	cfg.Stats = &st
	Fig7(cfg, []int{4, 4096}, "stats")
	if st.Jobs() != 12 {
		t.Errorf("6 series x 2 sizes should be 12 jobs, got %d", st.Jobs())
	}
	m := st.Totals()
	if m.SimEvents <= 0 {
		t.Error("no simulated events reported")
	}
	if m.PoolGets <= 0 || m.PoolHits <= 0 {
		t.Errorf("pool counters not aggregated: %+v", m)
	}
	if st.Runs != 1 {
		t.Errorf("one sweep should be one engine run, got %d", st.Runs)
	}
	if got := st.PoolHitRate(); got <= 0 || got > 1 {
		t.Errorf("pool hit rate %v out of range", got)
	}
	// The same sweep again under the same config: every job is answered by
	// the memo, reports the metrics of the run it reuses and counts as reused.
	if m.Reused != 0 {
		t.Errorf("a first sweep of 12 distinct points reused %d runs", m.Reused)
	}
	Fig7(cfg, []int{4, 4096}, "stats")
	again := st.Totals()
	if st.Jobs() != 24 || again.Reused != 12 || again.SimEvents != 2*m.SimEvents || again.PoolGets != 2*m.PoolGets {
		t.Errorf("a repeated sweep gave %d jobs and totals %+v, want 24 jobs, 12 reused and twice %+v", st.Jobs(), again, m)
	}
	if !strings.Contains(st.String(), "24 jobs (12 reused)") {
		t.Errorf("-stats does not show the reused jobs: %s", st.String())
	}
}
