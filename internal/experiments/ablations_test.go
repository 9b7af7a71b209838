package experiments

import "testing"

// Smoke tests asserting each ablation's headline shape, on reduced sweeps.

func TestAblationMultirailShape(t *testing.T) {
	r := byID("ablate-multirail").run(DefaultConfig().WithIters(20))
	one := byName(r, "1-rail")
	two := byName(r, "2-rail")
	// At 1MB two rails must approach 2x.
	ratio := at(two, 1048576) / at(one, 1048576)
	if ratio < 1.6 || ratio > 2.1 {
		t.Fatalf("dual-rail 1MB speedup %.2fx, want ≈2x", ratio)
	}
	// At 16KB the benefit is partial (handshake not parallelized).
	if r16 := at(two, 16384) / at(one, 16384); r16 >= ratio {
		t.Fatalf("16KB speedup %.2fx should trail the 1MB speedup %.2fx", r16, ratio)
	}
}

func TestAblationEagerThresholdShape(t *testing.T) {
	r := byID("ablate-eager").run(DefaultConfig().WithIters(20))
	small := byName(r, "eager=256")
	big := byName(r, "eager=1984")
	// 512B messages hit rendezvous with a 256B threshold: strictly worse.
	if at(small, 512) <= at(big, 512) {
		t.Fatal("small eager threshold did not penalize 512B messages")
	}
	// At 1984B both are near the cliff; the bigger threshold still wins.
	if at(big, 1984) >= at(small, 1984) {
		t.Fatal("1984B should be cheaper with the 1984 threshold (eager) than with 256 (rendezvous)")
	}
}

func TestAblationFatTreeShape(t *testing.T) {
	r := byID("ablate-fattree").run(DefaultConfig().WithIters(20))
	zero := byName(r, "0B")
	// 2 and 8 nodes share a single switch level; 64 adds two more.
	if at(zero, 2) != at(zero, 8) {
		t.Fatalf("one-level latencies differ: %v vs %v", at(zero, 2), at(zero, 8))
	}
	if at(zero, 64) <= at(zero, 8) {
		t.Fatal("three-level tree not slower than one-level")
	}
	// The growth is under a microsecond — wire hops, not protocol.
	if d := at(zero, 64) - at(zero, 8); d > 1.5 {
		t.Fatalf("far-corner penalty %.2fus too large", d)
	}
}

func TestAblationQueueSlotsShape(t *testing.T) {
	r := byID("ablate-qslots").run(DefaultConfig().WithIters(20))
	retries := byName(r, "retries")
	if at(retries, 2) <= at(retries, 64) {
		t.Fatal("shallower queues should retry more")
	}
	if at(retries, 64) < 0 {
		t.Fatal("negative retries")
	}
}

func TestAblationHWBcastShape(t *testing.T) {
	r := byID("ablate-hwbcast").run(DefaultConfig().WithIters(20))
	hw := byName(r, "hardware")
	sw := byName(r, "software-binomial")
	for _, nodes := range []int{4, 8, 16} {
		if at(hw, nodes) >= at(sw, nodes) {
			t.Fatalf("%d nodes: hardware (%.2f) not faster than software (%.2f)",
				nodes, at(hw, nodes), at(sw, nodes))
		}
	}
	// Hardware latency is near-flat; software grows with log N.
	if growth := at(hw, 16) - at(hw, 2); growth > 1.5 {
		t.Fatalf("hardware bcast grew %.2fus from 2 to 16 nodes", growth)
	}
	if growth := at(sw, 16) - at(sw, 2); growth < 10 {
		t.Fatalf("software bcast grew only %.2fus from 2 to 16 nodes", growth)
	}
}

func TestCSVOutput(t *testing.T) {
	r := &Result{
		XLabel: "bytes",
		Series: []Series{
			{Name: "a", Points: []Point{{4, 1.25}}},
			{Name: "b", Points: []Point{{4, 2.5}}},
		},
	}
	got := r.CSV()
	want := "bytes,a,b\n4,1.2500,2.5000\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
