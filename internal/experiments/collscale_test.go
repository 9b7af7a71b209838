package experiments

import (
	"runtime"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/simtime"
)

// TestCollectiveOffloadWins pins the tentpole result at a cheap size: the
// NIC combine tree beats the host software trees for both barrier and
// allreduce, and does it with fewer kernel events.
func TestCollectiveOffloadWins(t *testing.T) {
	for _, op := range []string{"barrier", "allreduce"} {
		host, hostM := Config{}.collLatency(64, false, op)
		nic, nicM := Config{}.collLatency(64, true, op)
		if nic >= host {
			t.Errorf("%s: NIC tree %.2fus not faster than host %.2fus", op, nic, host)
		}
		if nicM.SimEvents >= hostM.SimEvents {
			t.Errorf("%s: NIC tree %d events not fewer than host %d",
				op, nicM.SimEvents, hostM.SimEvents)
		}
	}
}

// TestCollective4096Barrier is the scale acceptance gate: a 4096-rank
// NIC-tree barrier run must build and complete within test timeouts.
func TestCollective4096Barrier(t *testing.T) {
	lat, m := Config{}.collLatency(4096, true, "barrier")
	if lat <= 0 || m.SimEvents <= 0 {
		t.Fatalf("4096-rank barrier: lat=%.2f events=%d", lat, m.SimEvents)
	}
	t.Logf("4096-rank NIC barrier: %.2fus, %d events", lat, m.SimEvents)
}

// TestCollPeersSymmetric: the restricted bringup topology must be
// symmetric (ConnectPeers only wires the local side) and include the NIC
// tree neighbours.
func TestCollPeersSymmetric(t *testing.T) {
	for _, n := range []int{2, 13, 64, 100} {
		sets := make([]map[int]bool, n)
		for r := 0; r < n; r++ {
			sets[r] = make(map[int]bool)
			for _, p := range CollPeers(r, n) {
				if p < 0 || p >= n || p == r {
					t.Fatalf("n=%d rank %d: bad peer %d", n, r, p)
				}
				sets[r][p] = true
			}
		}
		for r := 0; r < n; r++ {
			for p := range sets[r] {
				if !sets[p][r] {
					t.Errorf("n=%d: %d lists %d but not vice versa", n, r, p)
				}
			}
		}
	}
}

// bringUp brings up an n-rank cluster on the CollPeers topology, HWColl
// as given, and runs body as every rank's main.
func bringUp(t *testing.T, n int, hw bool, body func(c *cluster.Cluster, p *cluster.Proc)) {
	t.Helper()
	spec := bestRead()
	spec.HWColl, spec.Peers = hw, CollPeers
	c := cluster.New(spec, n)
	c.Launch(func(p *cluster.Proc) { body(c, p) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBringupMovesNoSimTime pins the simulated bring-up of a 256-rank
// CollPeers cluster, host trees and NIC trees, to the values recorded
// before connection setup became a batch: the instant each rank enters
// its body (the mpi-init rendezvous releases all of them together) and
// the kernel's step count when rank 0 does. A lookup sleep added or
// dropped, a lookup that waits, or a module connected twice moves them.
func TestBringupMovesNoSimTime(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		hw    bool
		enter simtime.Time
		steps int64
	}{
		{false, simtime.Time(1150 * simtime.Microsecond), 5355},
		{true, simtime.Time(1151 * simtime.Microsecond), 5611},
	} {
		var steps int64
		bringUp(t, n, tc.hw, func(c *cluster.Cluster, p *cluster.Proc) {
			if p.Rank == 0 {
				steps = c.K.Steps()
			}
			if now := p.Th.Now(); now != tc.enter {
				t.Errorf("hwcoll=%v: rank %d enters at %v, want %v", tc.hw, p.Rank, now, tc.enter)
			}
		})
		if steps != tc.steps {
			t.Errorf("hwcoll=%v: %d kernel steps at rank 0's entry, want %d", tc.hw, steps, tc.steps)
		}
	}
}

// TestBringupAllocsFlat: a connected peer costs no allocation, so the
// mallocs of a CollPeers bring-up per rank do not grow with the peers a
// rank connects (about 16 at 64 ranks, 20 at 256). Per-peer garbage —
// a name formatted per connection, a Peer or peer record allocated each,
// a table grown one insert at a time — reads 130 vs 147 here.
func TestBringupAllocsFlat(t *testing.T) {
	perRank := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		bringUp(t, n, false, func(*cluster.Cluster, *cluster.Proc) {})
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	small, large := perRank(64), perRank(256)
	t.Logf("mallocs per rank: %.1f at 64 ranks, %.1f at 256", small, large)
	if d := large - small; d >= 3 || d <= -3 {
		t.Errorf("mallocs per rank %.1f at 64 ranks, %.1f at 256: a peer allocates", small, large)
	}
}
