package experiments

import (
	"strings"
	"testing"

	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// The seeded late-sender scenario must charge the receiver (rank 1)
// with a late-sender wait on rank 0 of at least the injected skew.
func TestLateSenderClassified(t *testing.T) {
	p := obs.AnalyzeWaits(LateSenderEvents(1))
	var found bool
	for _, w := range p.Waits {
		if w.Kind == obs.WaitLateSender && w.Rank == 1 && w.Peer == 0 {
			found = true
			if us := w.Dur.Micros(); us < 39 {
				t.Errorf("late-sender wait %.3fus, want >= ~40us", us)
			}
		}
		if w.Kind == obs.WaitLateReceiver {
			t.Errorf("unexpected late-receiver wait in late-sender scenario: %+v", w)
		}
	}
	if !found {
		t.Fatalf("no late-sender wait charged to rank 1; waits: %+v", p.Waits)
	}
}

// The seeded late-receiver scenario must charge the sender (rank 0)
// with a late-receiver wait on rank 1, and that wait must equal the
// message's "match" phase from the critical-path profiler exactly —
// the reconciliation contract between the two analyzers.
func TestLateReceiverClassifiedAndReconciles(t *testing.T) {
	events := LateReceiverEvents(1)
	p := obs.AnalyzeWaits(events)
	var lateRecv *obs.Wait
	for i, w := range p.Waits {
		if w.Kind == obs.WaitLateReceiver {
			if w.Rank != 0 || w.Peer != 1 {
				t.Errorf("late-receiver charged to rank %d peer %d, want 0 -> 1", w.Rank, w.Peer)
			}
			lateRecv = &p.Waits[i]
		}
	}
	if lateRecv == nil {
		t.Fatalf("no late-receiver wait; waits: %+v", p.Waits)
	}
	prof := obs.Analyze(events)
	for _, m := range prof.Messages {
		if m.Corr != lateRecv.Corr {
			continue
		}
		var match simtime.Duration
		var found bool
		for _, ph := range m.Phases {
			if ph.Name == "match" {
				match, found = ph.Dur, true
			}
		}
		if !found {
			t.Fatalf("profiled message %x has no match phase", m.Corr)
		}
		if match != lateRecv.Dur {
			t.Errorf("late-receiver wait %v != match phase %v", lateRecv.Dur, match)
		}
		if lateRecv.Dur > m.Latency() {
			t.Errorf("late-receiver wait %v exceeds message latency %v", lateRecv.Dur, m.Latency())
		}
		return
	}
	t.Fatalf("no profiled message with corr %x", lateRecv.Corr)
}

// The staggered-compute barrier scenario: every epoch must see all four
// ranks, the NIC runs must be flagged as combine-tree epochs, and rank
// 3 (the last arrival) must never be charged a barrier wait while rank
// 0 (earliest) always is.
func TestBarrierSkewClassified(t *testing.T) {
	for _, nic := range []bool{false, true} {
		p := obs.AnalyzeWaits(BarrierSkewEvents(4, 3, nic, 1))
		if len(p.Epochs) < 3 {
			t.Fatalf("nic=%v: %d epochs, want >= 3", nic, len(p.Epochs))
		}
		for _, ep := range p.Epochs {
			if len(ep.Ranks) != 4 {
				t.Errorf("nic=%v epoch %d: %d ranks, want 4", nic, ep.ID, len(ep.Ranks))
			}
			if ep.NIC != nic {
				t.Errorf("nic=%v epoch %d flagged NIC=%v", nic, ep.ID, ep.NIC)
			}
			if ep.MaxUS <= 0 {
				t.Errorf("nic=%v epoch %d: zero arrival skew despite stagger", nic, ep.ID)
			}
		}
		var rank0, rank3 int
		for _, w := range p.Waits {
			if w.Kind != obs.WaitBarrier {
				continue
			}
			switch w.Rank {
			case 0:
				rank0++
			case 3:
				rank3++
			}
		}
		if rank0 == 0 {
			t.Errorf("nic=%v: earliest rank never charged a barrier wait", nic)
		}
		if rank3 != 0 {
			t.Errorf("nic=%v: last rank charged %d barrier waits, want 0", nic, rank3)
		}
	}
}

// Reconciliation over a generic mixed workload: every message's
// point-to-point waits (late-receiver + nic-contention, disjoint
// windows inside the message lifetime) must sum to no more than its
// end-to-end latency.
func TestWaitsReconcileWithLatency(t *testing.T) {
	_, rec := SampledRun(4, 4, 1, 0)
	events := rec.Events()
	p := obs.AnalyzeWaits(events)
	prof := obs.Analyze(events)
	lat := make(map[uint64]float64)
	for _, m := range prof.Messages {
		lat[m.Corr] = m.Latency().Micros()
	}
	inside := make(map[uint64]float64)
	for _, w := range p.Waits {
		if w.Kind == obs.WaitLateReceiver || w.Kind == obs.WaitNIC {
			inside[w.Corr] += w.Dur.Micros()
		}
	}
	for corr, sum := range inside {
		l, ok := lat[corr]
		if !ok {
			t.Errorf("wait charged to unprofiled corr %x", corr)
			continue
		}
		if sum > l+1e-9 {
			t.Errorf("corr %x: classified waits %.3fus exceed latency %.3fus", corr, sum, l)
		}
	}
}

// The heatmap report carries the gauges its readers look for (its identity
// across shard counts is a row of TestIdentityMatrix).
func TestHeatmapReportGauges(t *testing.T) {
	heat := HeatmapReport(8, 4, 1, 64)
	if !strings.Contains(heat, "duty-permille") || !strings.Contains(heat, "uplink-bytes") {
		t.Fatalf("heatmap report missing expected gauges:\n%s", heat)
	}
}

// Attaching the sampler must not perturb the simulation: every
// workload event (everything but the sampler's own GaugeSample
// snapshots) is byte-identical with and without it — the sampler only
// reads state, so its tick events interleave without side effects.
func TestSamplerZeroPerturbation(t *testing.T) {
	smpOn, recOn := SampledRun(4, 4, 1, 0)
	if smpOn.Ticks() == 0 {
		t.Fatal("sampler never ticked")
	}
	_, recOff := sampledRun(4, 4, 1, 0, false)
	var on []trace.Event
	for _, e := range recOn.Events() {
		if e.Kind != trace.GaugeSample {
			on = append(on, e)
		}
	}
	off := recOff.Events()
	if len(on) != len(off) {
		t.Fatalf("workload event counts differ with sampler on: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("event %d differs with sampler on:\n on: %+v\noff: %+v", i, on[i], off[i])
		}
	}
}
