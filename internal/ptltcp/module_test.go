package ptltcp_test

import (
	"bytes"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptltcp"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

func tcpSpec() cluster.Spec {
	return cluster.Spec{TCP: &ptltcp.Options{}, Progress: pml.Polling}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

func roundTrip(t *testing.T, n int) (simtime.Time, *cluster.Cluster) {
	t.Helper()
	c := cluster.New(tcpSpec(), 2)
	var done simtime.Time
	ok := false
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(n)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 1, 0, pattern(n, 2), dt).Wait(p.Th)
			buf := make([]byte, n)
			p.Stack.Recv(p.Th, 1, 2, 0, buf, dt).Wait(p.Th)
			done = p.Th.Now()
			ok = bytes.Equal(buf, pattern(n, 3))
		} else {
			buf := make([]byte, n)
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
			if !bytes.Equal(buf, pattern(n, 2)) {
				t.Error("forward leg corrupted")
			}
			p.Stack.Send(p.Th, 0, 2, 0, pattern(n, 3), dt).Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n > 0 && !ok {
		t.Fatal("return leg corrupted")
	}
	return done, c
}

func TestEagerRoundTrip(t *testing.T) {
	at, _ := roundTrip(t, 1024)
	// Gigabit Ethernet + kernel stack: tens of microseconds each way.
	us := at.Micros()
	if us < 60 || us > 500 {
		t.Fatalf("1KB TCP round trip took %.1fus, want O(100us)", us)
	}
}

func TestLargeTransferChunksAndReassembles(t *testing.T) {
	// Above the eager limit: RNDV + ACK + in-band FRAGs, all segmented at
	// the Ethernet MTU.
	_, c := roundTrip(t, 300*1000)
	sent, delivered := c.EthNet.Stats()
	if sent != delivered {
		t.Fatalf("segments lost: %d sent, %d delivered", sent, delivered)
	}
	// 2 × 300KB ≈ 600KB at ~1448B per segment ≥ 400 segments.
	if sent < 400 {
		t.Fatalf("only %d segments for 600KB of traffic", sent)
	}
}

func TestZeroByte(t *testing.T) {
	roundTrip(t, 0)
}

func TestLatencyDominatedBySoftwareCosts(t *testing.T) {
	// The TCP stack's distinguishing property in the paper: OS overhead
	// dwarfs the wire. A zero-byte half-RT must exceed the syscall+stack
	// budget at both ends plus propagation.
	at, _ := roundTrip(t, 0)
	half := at.Micros() / 2
	if half < 35 {
		t.Fatalf("TCP 0B half round trip %.1fus: OS costs missing", half)
	}
}

func TestStatsCount(t *testing.T) {
	c := cluster.New(tcpSpec(), 2)
	var st ptltcp.Stats
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(100)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 1, 0, pattern(100, 1), dt).Wait(p.Th)
			st = p.TCP.Stats()
		} else {
			buf := make([]byte, 100)
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if st.MsgsTx != 1 || st.SegsTx != 1 {
		t.Fatalf("sender stats %+v", st)
	}
	if st.BytesTx != 100+64 {
		t.Fatalf("bytes = %d, want payload+header", st.BytesTx)
	}
}

func TestManyInterleavedMessages(t *testing.T) {
	c := cluster.New(tcpSpec(), 2)
	const msgs = 20
	bufs := make([][]byte, msgs)
	c.Launch(func(p *cluster.Proc) {
		if p.Rank == 0 {
			var reqs []*pml.SendReq
			for i := 0; i < msgs; i++ {
				n := 500 * (i + 1)
				reqs = append(reqs, p.Stack.Send(p.Th, 1, i, 0, pattern(n, byte(i)), datatype.Contiguous(n)))
			}
			for _, r := range reqs {
				r.Wait(p.Th)
			}
		} else {
			var reqs []*pml.RecvReq
			for i := 0; i < msgs; i++ {
				n := 500 * (i + 1)
				bufs[i] = make([]byte, n)
				reqs = append(reqs, p.Stack.Recv(p.Th, 0, i, 0, bufs[i], datatype.Contiguous(n)))
			}
			for _, r := range reqs {
				r.Wait(p.Th)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], pattern(500*(i+1), byte(i))) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestLifecycleEnforced(t *testing.T) {
	c := cluster.New(tcpSpec(), 2)
	panicked := false
	c.Launch(func(p *cluster.Proc) {
		if p.Rank != 0 {
			return
		}
		p.Stack.Finalize(p.Th)
		defer func() { panicked = recover() != nil }()
		p.Stack.Send(p.Th, 1, 0, 0, []byte{1}, datatype.Contiguous(1))
	})
	_ = c.Run()
	if !panicked {
		t.Fatal("send after finalize did not panic")
	}
}

// TestPTLEventsCarryCorr pins the tracecorr contract on the TCP path:
// every PTL-layer event (eager, rendezvous and ACK tx) must carry the rank
// that recorded it and the correlator of its message's PML SendPosted, or
// the critical-path profiler drops it from the message's lifecycle chain.
func TestPTLEventsCarryCorr(t *testing.T) {
	for _, n := range []int{1024, 200 * 1024} { // eager and rendezvous
		rec := trace.NewRecorder(0)
		spec := tcpSpec()
		spec.Tracer = rec
		c := cluster.New(spec, 2)
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(n)
			if p.Rank == 0 {
				p.Stack.Send(p.Th, 1, 1, 0, pattern(n, 2), dt).Wait(p.Th)
			} else {
				buf := make([]byte, n)
				p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var posted uint64
		for _, e := range rec.Events() {
			if e.Layer == trace.LayerPML && e.Kind == trace.SendPosted {
				posted = e.Corr
			}
		}
		if posted == 0 {
			t.Fatalf("size %d: no SendPosted correlator", n)
		}
		ptlEvents := 0
		for _, e := range rec.Events() {
			if e.Layer != trace.LayerPTL {
				continue
			}
			ptlEvents++
			// Two ranks: whoever records an event talks to the other.
			if e.Rank != 1-e.Peer {
				t.Errorf("size %d: PTL event %s at %v recorded by rank %d, peer %d", n, e.Kind, e.At, e.Rank, e.Peer)
			}
			if e.Corr != posted {
				t.Errorf("size %d: PTL event %s at %v has correlator %#x, its SendPosted %#x", n, e.Kind, e.At, e.Corr, posted)
			}
		}
		if ptlEvents == 0 {
			t.Fatalf("size %d: no PTL events traced", n)
		}
	}
}
