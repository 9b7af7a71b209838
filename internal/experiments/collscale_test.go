package experiments

import "testing"

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
// symmetric (ConnectPeer only wires the local side) and include the NIC
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
