package fabric

import (
	"testing"

	"qsmpi/internal/simtime"
)

// refSwitchOf returns the index of the level-l switch above port id.
// Level 1 switches are leaves; each covers arity^l ports.
func refSwitchOf(n *Network, id, l int) int {
	span := 1
	for i := 0; i < l; i++ {
		span *= n.arity
	}
	return id / span
}

// refPath is the reference route: it walks the fat tree switch by switch
// to build the up-down path from src to dst, and the number of switches
// crossed. hop must name the same links in the same order.
func refPath(n *Network, src, dst int) (links []*link, switches int) {
	if src == dst {
		return nil, 0
	}
	// Find lowest common ancestor level: smallest l with same level-l switch.
	lca := 1
	for refSwitchOf(n, src, lca) != refSwitchOf(n, dst, lca) {
		lca++
	}
	// Up from src: node→leaf, then leaf→parent... up to level lca.
	sw := src
	for l := 1; l <= lca; l++ {
		links = append(links, n.linkFor(n.up, l, sw))
		sw = refSwitchOf(n, src, l)
	}
	// Down to dst: from level lca down to the node link.
	for l := lca; l >= 1; l-- {
		var sub int
		if l == 1 {
			sub = dst
		} else {
			sub = refSwitchOf(n, dst, l-1)
		}
		links = append(links, n.linkFor(n.down, l, sub))
	}
	return links, 2*lca - 1
}

// path collects the route the fabric books, hop by hop.
func path(n *Network, src, dst int) (links []*link, switches int) {
	lca := n.lca(src, dst)
	for i := 0; i < 2*lca; i++ {
		links = append(links, n.hop(src, dst, lca, i))
	}
	return links, 2*lca - 1
}

// checkRoute fails unless the route from src to dst matches the reference
// link pointer for link pointer (the same physical links, not just the same
// shape) and in switch count.
func checkRoute(t *testing.T, n *Network, src, dst int) {
	t.Helper()
	got, gotSw := path(n, src, dst)
	want, wantSw := refPath(n, src, dst)
	if gotSw != wantSw || len(got) != len(want) {
		t.Fatalf("arity %d, %d ports, %d->%d: %d links %d switches, reference %d/%d",
			n.arity, n.nports, src, dst, len(got), gotSw, len(want), wantSw)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arity %d, %d ports, %d->%d: hop %d is not the reference's link",
				n.arity, n.nports, src, dst, i)
		}
	}
	if got[0] != n.uplink(src) {
		t.Fatalf("arity %d, %d ports, %d->%d: hop 0 is not the source up-link", n.arity, n.nports, src, dst)
	}
}

func arityParams(arity int) Params {
	p := testParams()
	p.Arity = arity
	return p
}

// Every (src, dst) pair of trees one below, at and one above a power of
// the arity, for the quaternary Elan tree and the arity-48 Ethernet, plus
// the far corners of a 4096-port tree.
func TestRouteMatchesReference(t *testing.T) {
	sizes := map[int][]int{
		4:  {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 255, 256, 257},
		48: {2, 48, 49, 100},
	}
	for _, arity := range []int{4, 48} {
		for _, nports := range sizes[arity] {
			net := New(simtime.NewKernel(), arityParams(arity), nports)
			for src := 0; src < nports; src++ {
				for dst := 0; dst < nports; dst++ {
					if src != dst {
						checkRoute(t, net, src, dst)
					}
				}
			}
		}
	}
	net := New(simtime.NewKernel(), testParams(), 4096)
	corners := []int{0, 1, 3, 4, 1023, 1024, 2047, 2048, 3071, 3072, 4092, 4095}
	for _, src := range corners {
		for _, dst := range corners {
			if src != dst {
				checkRoute(t, net, src, dst)
			}
		}
	}
}

// FuzzRouteMatchesReference holds hop to the reference tree walk for any
// tree up to 4096 ports and arity 48. Its seed corpus, which plain `go
// test` runs, puts the far corners of trees at both sides of a level
// boundary of both arities the fabric is built with.
func FuzzRouteMatchesReference(f *testing.F) {
	for _, arity := range []uint8{2, 4, 48} {
		for _, nports := range []uint16{2, 15, 16, 17, 48, 49, 64, 65, 2304, 2305, 4096} {
			for _, pair := range [][2]uint16{{0, nports - 1}, {nports - 1, 0}, {1, nports / 2}} {
				f.Add(nports, arity, pair[0], pair[1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, nports uint16, arity uint8, src, dst uint16) {
		if nports < 2 || nports > 4096 || arity < 2 || arity > 48 {
			t.Skip()
		}
		s, d := int(src)%int(nports), int(dst)%int(nports)
		if s == d {
			t.Skip()
		}
		checkRoute(t, New(simtime.NewKernel(), arityParams(int(arity)), int(nports)), s, d)
	})
}

// Multi-level routing at arity boundaries: nports one below, at, and one
// above a power of the arity exercises the LCA walk where the tree gains
// a level. Golden path lengths with testParams (arity 4, wire 0.1us,
// switch 0.15us, zero overhead): a path through the level-l common
// ancestor crosses 2l links and 2l-1 switches.
func TestArityBoundaryPathGoldens(t *testing.T) {
	cases := []struct {
		nports     int
		levels     int
		src, dst   int
		links, sws int
	}{
		// 4^2 - 1: two levels; cross-root and same-leaf pairs.
		{15, 2, 0, 14, 4, 3},
		{15, 2, 12, 14, 2, 1},
		// 4^2: still two levels.
		{16, 2, 0, 15, 4, 3},
		// 4^2 + 1: three levels; port 16 sits alone under the second
		// level-2 switch, so reaching it crosses the root.
		{17, 3, 0, 16, 6, 5},
		{17, 3, 0, 15, 4, 3},
		// 4^3 ± 1.
		{63, 3, 0, 62, 6, 5},
		{64, 3, 0, 63, 6, 5},
		{65, 4, 0, 64, 8, 7},
		{65, 4, 60, 63, 2, 1},
	}
	for _, tc := range cases {
		k := simtime.NewKernel()
		net := New(k, testParams(), tc.nports)
		if net.levels != tc.levels {
			t.Errorf("nports=%d: %d levels, want %d", tc.nports, net.levels, tc.levels)
		}
		links, sws := path(net, tc.src, tc.dst)
		if len(links) != tc.links || sws != tc.sws {
			t.Errorf("nports=%d %d->%d: %d links %d switches, want %d/%d",
				tc.nports, tc.src, tc.dst, len(links), sws, tc.links, tc.sws)
		}
		p := testParams()
		want := simtime.Duration(tc.links)*p.WireLatency + simtime.Duration(tc.sws)*p.SwitchLatency
		if got := zeroByteLatency(k, net, tc.src, tc.dst); got != want {
			t.Errorf("nports=%d %d->%d: zero-byte latency %v, want %v",
				tc.nports, tc.src, tc.dst, got, want)
		}
	}
}

// Routing a pair for the first time allocates nothing: a route is computed
// from the port numbers, not looked up or stored. Port 1 first sends to
// every other port, which creates every link port 0's routes use above its
// own up-link and warms every port's delivery list; the pair 0->1 warms
// port 0's up-link and flight list. Each measured Send is then from port 0
// to a port it has never sent to.
func TestSendAllocatesNothing(t *testing.T) {
	const nports = 64 // arity 4: three levels, so routes cross the root
	k := simtime.NewKernel()
	defer k.Close()
	net := New(k, testParams(), nports)
	for id := 0; id < nports; id++ {
		net.Attach(id, func(*Packet) {})
	}
	for dst := 0; dst < nports; dst++ {
		if dst != 1 {
			net.Send(&Packet{Src: 1, Dst: dst, Size: 64}, nil)
		}
	}
	net.Send(&Packet{Src: 0, Dst: 1, Size: 64}, nil)
	k.Run()
	dst := 1
	allocs := testing.AllocsPerRun(nports-3, func() {
		dst++
		net.Send(&Packet{Src: 0, Dst: dst, Size: 64}, nil)
		k.Run()
	})
	if dst != nports-1 {
		t.Fatalf("measured up to port %d, want %d", dst, nports-1)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per Send to a pair never routed before, want none", allocs)
	}
}

// A 4096-port fabric must build with O(nports) state: per-level link
// tables bounded by the geometric series, and nothing per (src, dst) pair.
func TestLargeFabricConstructionLean(t *testing.T) {
	k := simtime.NewKernel()
	const nports = 4096
	net := New(k, testParams(), nports)
	if net.levels != 6 {
		t.Fatalf("levels = %d, want 6", net.levels)
	}
	slots := 0
	for l := 1; l <= net.levels; l++ {
		slots += len(net.up[l]) + len(net.down[l])
	}
	// Geometric series: 2 * (4096 + 1024 + ... + 1) < 2 * 4/3 * nports.
	if slots > 3*nports {
		t.Fatalf("link table slots %d exceed O(nports) bound %d", slots, 3*nports)
	}
	// The far corners still route.
	if d := zeroByteLatency(k, net, 0, nports-1); d <= 0 {
		t.Fatalf("cross-root latency %v", d)
	}
}
