package fabric

import (
	"fmt"
	"testing"
	"testing/quick"

	"qsmpi/internal/simtime"
)

func testParams() Params {
	return Params{
		LinkBandwidth:  1e9, // 1 GB/s: 1 ns/byte, easy arithmetic
		WireLatency:    simtime.Micros(0.1),
		SwitchLatency:  simtime.Micros(0.15),
		MTU:            2048,
		PacketOverhead: 0,
		Arity:          4,
	}
}

func collect(net *Network, id int) *[]*Packet {
	var got []*Packet
	// Delivered packets are recycled after the handler returns; keep copies.
	net.Attach(id, func(p *Packet) {
		cp := *p
		got = append(got, &cp)
	})
	return &got
}

func TestSingleSwitchLatency(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 4)
	var deliveredAt simtime.Time
	net.Attach(1, func(p *Packet) { deliveredAt = k.Now() })
	net.Send(&Packet{Src: 0, Dst: 1, Size: 0}, nil)
	k.Run()
	// Two links (up, down) + one switch: 2*0.1 + 0.15 = 0.35us.
	want := simtime.Time(simtime.Micros(0.35))
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestSerializationTime(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 4)
	var at simtime.Time
	net.Attach(2, func(p *Packet) { at = k.Now() })
	net.Send(&Packet{Src: 0, Dst: 2, Size: 1000}, nil)
	k.Run()
	// Wormhole: latency 0.35us + one serialization of 1000B at 1GB/s = 1us.
	want := simtime.Time(simtime.Micros(1.35))
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestLoopback(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 4)
	var at simtime.Time
	net.Attach(0, func(p *Packet) { at = k.Now() })
	net.Send(&Packet{Src: 0, Dst: 0, Size: 512}, nil)
	k.Run()
	if at != simtime.Time(simtime.Micros(0.15)) {
		t.Fatalf("loopback delivered at %v", at)
	}
}

func TestTwoLevelPathLongerThanOneLevel(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 16) // arity 4 → two levels
	var near, far simtime.Time
	net.Attach(1, func(p *Packet) { near = k.Now() })
	net.Attach(15, func(p *Packet) { far = k.Now() })
	net.Send(&Packet{Src: 0, Dst: 1, Size: 0}, nil)  // same leaf switch
	net.Send(&Packet{Src: 0, Dst: 15, Size: 0}, nil) // crosses the root
	k.Run()
	if near == 0 || far == 0 {
		t.Fatal("packets not delivered")
	}
	if far <= near {
		t.Fatalf("cross-root path (%v) not slower than leaf path (%v)", far, near)
	}
	// Cross-root: 4 links, 3 switches = 4*0.1 + 3*0.15 = 0.85us.
	if far != simtime.Time(simtime.Micros(0.85)) {
		t.Fatalf("far = %v, want 0.85us", far)
	}
}

func TestInOrderDeliverySamePair(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 8)
	var got []int
	net.Attach(5, func(p *Packet) { got = append(got, p.Payload.(int)) })
	for i := 0; i < 50; i++ {
		net.Send(&Packet{Src: 2, Dst: 5, Size: 100 + (i%7)*200, Payload: i}, nil)
	}
	k.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d packets, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

func TestLinkContentionSharesBandwidth(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 8)
	var last simtime.Time
	net.Attach(3, func(p *Packet) { last = k.Now() })
	// Two senders converge on port 3's down-link: the second packet must
	// queue behind the first on that link.
	net.Send(&Packet{Src: 0, Dst: 3, Size: 2000}, nil)
	net.Send(&Packet{Src: 1, Dst: 3, Size: 2000}, nil)
	k.Run()
	// Uncontended: 0.35 + 2.0 = 2.35us. The second must wait ~one extra
	// serialization on the shared link: ≥ 4.0us total transfer time.
	min := simtime.Time(simtime.Micros(4.0))
	if last < min {
		t.Fatalf("contended delivery at %v, want ≥ %v", last, min)
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 16)
	times := make(map[int]simtime.Time)
	// Same-leaf pairs: 0→1, 4→5, 8→9, 12→13 share no link at all.
	for _, d := range []int{1, 5, 9, 13} {
		d := d
		net.Attach(d, func(p *Packet) { times[d] = k.Now() })
	}
	for _, s := range []int{0, 4, 8, 12} {
		net.Send(&Packet{Src: s, Dst: s + 1, Size: 2000}, nil)
	}
	k.Run()
	want := simtime.Time(simtime.Micros(2.35))
	for _, d := range []int{1, 5, 9, 13} {
		if times[d] != want {
			t.Fatalf("port %d delivered at %v, want %v (no contention)", d, times[d], want)
		}
	}
}

func TestFatUpLinksPreserveBisection(t *testing.T) {
	// In a 16-node arity-4 tree, four flows from distinct leaves of one
	// subtree to distinct leaves of another share the subtree's up-link,
	// which is 4x fat — so they should see (nearly) no slowdown vs a
	// single flow.
	k := simtime.NewKernel()
	net := New(k, testParams(), 16)
	var soloTime simtime.Time
	net.Attach(12, func(p *Packet) { soloTime = k.Now() })
	net.Send(&Packet{Src: 0, Dst: 12, Size: 2000}, nil)
	k.Run()

	k2 := simtime.NewKernel()
	net2 := New(k2, testParams(), 16)
	var maxTime simtime.Time
	for i := 0; i < 4; i++ {
		dst := 12 + i
		net2.Attach(dst, func(p *Packet) {
			if k2.Now() > maxTime {
				maxTime = k2.Now()
			}
		})
	}
	for i := 0; i < 4; i++ {
		net2.Send(&Packet{Src: i, Dst: 12 + i, Size: 2000}, nil)
	}
	k2.Run()
	// Allow the root-link sharing to add at most 3 extra serializations
	// at 4x bandwidth (i.e. < one base-link serialization total).
	slack := simtime.Duration(2000) * simtime.Nanosecond // 2000B at 1GB/s
	if maxTime > soloTime.Add(slack) {
		t.Fatalf("bisection flows: max %v vs solo %v (+%v allowed)", maxTime, soloTime, slack)
	}
}

func TestOnWireCallback(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 4)
	var wireAt, deliverAt simtime.Time
	net.Attach(1, func(p *Packet) { deliverAt = k.Now() })
	net.Send(&Packet{Src: 0, Dst: 1, Size: 2000}, func() { wireAt = k.Now() })
	k.Run()
	if wireAt == 0 || deliverAt == 0 {
		t.Fatal("callbacks not invoked")
	}
	// Source link frees after its serialization (2us), before delivery.
	if wireAt != simtime.Time(simtime.Micros(2.0)) {
		t.Fatalf("onWire at %v, want 2.0us", wireAt)
	}
	if wireAt >= deliverAt {
		t.Fatalf("onWire (%v) must precede delivery (%v)", wireAt, deliverAt)
	}
}

func TestOversizePacketPanics(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 4)
	net.Attach(1, func(p *Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversize packet")
		}
	}()
	net.Send(&Packet{Src: 0, Dst: 1, Size: 4096}, nil)
}

func TestBadPortPanics(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad port")
		}
	}()
	net.Send(&Packet{Src: 0, Dst: 9, Size: 0}, nil)
}

// Property: every packet sent between valid ports is delivered exactly
// once, to the right port, regardless of size ≤ MTU and port choice, and
// the network's sent/delivered stats agree.
func TestAllPacketsDeliveredProperty(t *testing.T) {
	f := func(pairs []uint32, sizes []uint16) bool {
		const N = 16
		k := simtime.NewKernel()
		net := New(k, testParams(), N)
		recv := make([]int, N)
		for i := 0; i < N; i++ {
			i := i
			net.Attach(i, func(p *Packet) {
				if p.Dst != i {
					t.Errorf("packet for %d delivered to %d", p.Dst, i)
				}
				recv[i]++
			})
		}
		sent := 0
		for i, pr := range pairs {
			if i >= 64 {
				break
			}
			src := int(pr % N)
			dst := int((pr / N) % N)
			size := 0
			if len(sizes) > 0 {
				size = int(sizes[i%len(sizes)]) % 2049
			}
			net.Send(&Packet{Src: src, Dst: dst, Size: size}, nil)
			sent++
		}
		k.Run()
		total := 0
		for _, c := range recv {
			total += c
		}
		s, d := net.Stats()
		return total == sent && s == int64(sent) && d == int64(sent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Asymptotic bandwidth through the tree must equal the base link rate:
// stream many MTU packets and check the delivery rate.
func TestStreamingBandwidth(t *testing.T) {
	k := simtime.NewKernel()
	net := New(k, testParams(), 16)
	const npkts = 200
	var lastDelivery simtime.Time
	count := 0
	net.Attach(15, func(p *Packet) { count++; lastDelivery = k.Now() })
	for i := 0; i < npkts; i++ {
		net.Send(&Packet{Src: 0, Dst: 15, Size: 2048}, nil)
	}
	k.Run()
	if count != npkts {
		t.Fatalf("delivered %d, want %d", count, npkts)
	}
	totalBytes := float64(npkts * 2048)
	bw := totalBytes / (float64(lastDelivery) / float64(simtime.Second))
	if bw < 0.95e9 || bw > 1.05e9 {
		t.Fatalf("streaming bandwidth %.3g B/s, want ≈1e9", bw)
	}
}

// A one-way stream — a source pacing packets at the link rate, nothing
// coming back — must cost no allocation per packet once warm, and hold no
// more recycled state than it keeps in the air: flights pool where they are
// taken and returned, at the source, and deliveries at the destination.
func TestOneWayStreamAllocatesNothing(t *testing.T) {
	const size, inFlight = 512, 8 // ≈3 packets fit in the 1.3 µs path
	k := simtime.NewKernel()
	defer k.Close()
	net := New(k, testParams(), 16)
	delivered := 0
	net.Attach(15, func(*Packet) { delivered++ })
	left := 0
	var tick func()
	tick = func() {
		net.Send(&Packet{Src: 0, Dst: 15, Size: size}, nil)
		if left--; left > 0 {
			k.After(simtime.BytesAt(size, testParams().LinkBandwidth), "tick", tick)
		}
	}
	stream := func(n int) {
		left = n
		tick()
		k.Run()
	}
	stream(100) // warm the pools and the event heap
	if allocs := testing.AllocsPerRun(1, func() { stream(10000) }); allocs != 0 {
		t.Errorf("%v allocations for 10000 packets, want none", allocs)
	}
	if delivered != 100+2*10000 {
		t.Fatalf("delivered %d packets", delivered)
	}
	for id := range net.ports {
		ps := &net.ports[id]
		wantDel, wantFlight := 0, 0
		switch id {
		case 0:
			wantFlight = inFlight
		case 15:
			wantDel = inFlight
		}
		if ps.deliveries.Len() > wantDel || ps.flights.Len() > wantFlight {
			t.Errorf("port %d holds %d recycled deliveries and %d flights, want at most %d and %d",
				id, ps.deliveries.Len(), ps.flights.Len(), wantDel, wantFlight)
		}
	}
}

// zeroByteLatency sends a zero-byte packet from src to dst on a kernel
// that has run nothing yet and returns when it arrives.
func zeroByteLatency(k *simtime.Kernel, net *Network, src, dst int) simtime.Duration {
	var at simtime.Time
	net.Attach(dst, func(*Packet) { at = k.Now() })
	net.Send(&Packet{Src: src, Dst: dst}, nil)
	k.Run()
	return simtime.Duration(at)
}

// TestZeroByteLatencyMatchesSend: a minimal packet under no contention
// takes the per-hop wire latency plus the switch crossings plus the header
// serialized once, on a node link.
func TestZeroByteLatencyMatchesSend(t *testing.T) {
	p := Params{
		LinkBandwidth: 1e9, WireLatency: simtime.Micros(0.1),
		SwitchLatency: simtime.Micros(0.15), MTU: 2048,
		PacketOverhead: 32, Arity: 4,
	}
	for _, n := range []int{4, 16, 64} {
		k := simtime.NewKernel()
		net := New(k, p, n)
		lca := simtime.Duration(net.lca(0, n-1))
		want := (2*lca-1)*p.SwitchLatency + 2*lca*p.WireLatency + simtime.BytesAt(p.PacketOverhead, p.LinkBandwidth)
		if got := zeroByteLatency(k, net, 0, n-1); got != want {
			t.Fatalf("n=%d: delivered after %v, the model says %v", n, got, want)
		}
	}
}

func TestLossyLinkPreservesOrderProperty(t *testing.T) {
	// CRC retries are stop-and-go at the link layer: even heavy loss must
	// preserve per-pair ordering and deliver everything exactly once.
	f := func(seed uint8) bool {
		p := testParams()
		p.LossRate = 0.3
		p.RetryDelay = simtime.Micros(0.5)
		k := simtime.NewKernel()
		_ = seed // vary nothing but keep quick.Check exercising the path
		net := New(k, p, 4)
		var got []int
		net.Attach(2, func(pk *Packet) { got = append(got, pk.Payload.(int)) })
		const n = 40
		for i := 0; i < n; i++ {
			net.Send(&Packet{Src: 1, Dst: 2, Size: 256, Payload: i}, nil)
		}
		k.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLossSlowsDelivery(t *testing.T) {
	run := func(rate float64) (simtime.Time, int64) {
		p := testParams()
		p.LossRate = rate
		p.RetryDelay = simtime.Micros(1)
		k := simtime.NewKernel()
		net := New(k, p, 4)
		var last simtime.Time
		net.Attach(1, func(pk *Packet) { last = k.Now() })
		for i := 0; i < 100; i++ {
			net.Send(&Packet{Src: 0, Dst: 1, Size: 1024}, nil)
		}
		k.Run()
		return last, net.Retransmits()
	}
	clean, r0 := run(0)
	lossy, r1 := run(0.2)
	if r0 != 0 || r1 == 0 {
		t.Fatalf("retransmit counts: clean %d, lossy %d", r0, r1)
	}
	if lossy <= clean {
		t.Fatal("loss did not slow delivery")
	}
}

func TestMulticastSharedLinksChargedOnce(t *testing.T) {
	// A multicast to every node of a subtree must cross the shared
	// up-link once: total delivery time ≈ unicast, not fan-out× unicast.
	k := simtime.NewKernel()
	net := New(k, testParams(), 16)
	var times []simtime.Time
	for _, d := range []int{12, 13, 14, 15} {
		net.Attach(d, func(pk *Packet) { times = append(times, k.Now()) })
	}
	net.SendMulti(0, 2000, []int{12, 13, 14, 15}, func(int) any { return "x" }, nil)
	k.Run()
	if len(times) != 4 {
		t.Fatalf("delivered %d copies", len(times))
	}
	// All copies land within the down-level skew (< one serialization).
	var min, max simtime.Time
	for i, tm := range times {
		if i == 0 || tm < min {
			min = tm
		}
		if tm > max {
			max = tm
		}
	}
	if spread := max.Sub(min); spread > simtime.Duration(2000)*simtime.Nanosecond {
		t.Fatalf("multicast spread %v too large (serial unicast suspected)", spread)
	}
}

func TestManyFlowsDeterministic(t *testing.T) {
	run := func() string {
		k := simtime.NewKernel()
		net := New(k, testParams(), 8)
		var log string
		for i := 0; i < 8; i++ {
			i := i
			net.Attach(i, func(p *Packet) {
				log += fmt.Sprintf("%d<%d@%v;", i, p.Src, k.Now())
			})
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i != j {
					net.Send(&Packet{Src: i, Dst: j, Size: 1024}, nil)
				}
			}
		}
		k.Run()
		return log
	}
	if run() != run() {
		t.Fatal("fabric is nondeterministic")
	}
}
