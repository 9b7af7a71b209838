package ptlelan4_test

import (
	"bytes"
	"math/rand"
	"testing"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/model"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptl"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/ptltcp"
	"qsmpi/internal/simtime"
)

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*5 + seed
	}
	return b
}

// pingpong runs iters round trips of size n and returns the mean half
// round trip in microseconds.
func pingpong(t testing.TB, spec cluster.Spec, n, iters int) float64 {
	t.Helper()
	c := cluster.New(spec, 2)
	var total simtime.Duration
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(n)
		buf := pattern(n, byte(p.Rank))
		scratch := make([]byte, n)
		if p.Rank == 0 {
			for i := 0; i < iters; i++ {
				start := p.Th.Now()
				p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
				p.Stack.Recv(p.Th, 1, 2, 0, scratch, dt).Wait(p.Th)
				total += p.Th.Now().Sub(start)
			}
			if n > 0 && !bytes.Equal(scratch, pattern(n, 1)) {
				t.Error("pingpong payload corrupted")
			}
		} else {
			for i := 0; i < iters; i++ {
				p.Stack.Recv(p.Th, 0, 1, 0, scratch, dt).Wait(p.Th)
				p.Stack.Send(p.Th, 0, 2, 0, buf, dt).Wait(p.Th)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return total.Micros() / float64(iters) / 2
}

func elanSpec(opts ptlelan4.Options) cluster.Spec {
	return cluster.Spec{Elan: &opts, Progress: pml.Polling}
}

// slotsSpec is elanSpec on a model whose receive queues and send-buffer
// pools hold slots entries.
func slotsSpec(opts ptlelan4.Options, slots int) cluster.Spec {
	m := model.Default()
	m.QueueSlots = slots
	spec := elanSpec(opts)
	spec.Model = &m
	return spec
}

func TestEagerPingPong(t *testing.T) {
	lat := pingpong(t, elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead)), 4, 50)
	// Paper Table 1 "Basic" RDMA-Read 4B: 3.87us. Accept a window.
	if lat < 3.0 || lat > 5.0 {
		t.Fatalf("4B latency %.3fus, want ≈3.9us", lat)
	}
	t.Logf("4B eager latency: %.3fus", lat)
}

func TestZeroByte(t *testing.T) {
	lat := pingpong(t, elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead)), 0, 20)
	if lat <= 0 || lat > 5.0 {
		t.Fatalf("0B latency %.3fus out of range", lat)
	}
}

func rndvIntegrity(t *testing.T, opts ptlelan4.Options, sizes []int) {
	for _, n := range sizes {
		c := cluster.New(elanSpec(opts), 2)
		ok := false
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(n)
			if p.Rank == 0 {
				p.Stack.Send(p.Th, 1, 1, 0, pattern(n, 7), dt).Wait(p.Th)
			} else {
				buf := make([]byte, n)
				p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
				ok = bytes.Equal(buf, pattern(n, 7))
			}
		})
		if err := c.Run(); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !ok {
			t.Fatalf("size %d: data corrupted (%s)", n, opts.Scheme)
		}
	}
}

var rndvSizes = []int{1985, 4096, 65536, 1 << 20}

func TestRendezvousReadScheme(t *testing.T) {
	rndvIntegrity(t, ptlelan4.BestOptions(ptlelan4.RDMARead), rndvSizes)
}

func TestRendezvousWriteScheme(t *testing.T) {
	rndvIntegrity(t, ptlelan4.BestOptions(ptlelan4.RDMAWrite), rndvSizes)
}

func TestRendezvousInline(t *testing.T) {
	for _, scheme := range []ptlelan4.Scheme{ptlelan4.RDMARead, ptlelan4.RDMAWrite} {
		opts := ptlelan4.BestOptions(scheme)
		opts.InlineRndv = true
		rndvIntegrity(t, opts, []int{2000, 100000})
	}
}

func TestReadSavesControlPacketOverWrite(t *testing.T) {
	// Fig. 7(b): RDMA read beats RDMA write for rendezvous messages
	// because the read scheme saves one control packet.
	const n, iters = 4096, 50
	read := pingpong(t, elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead)), n, iters)
	write := pingpong(t, elanSpec(ptlelan4.BestOptions(ptlelan4.RDMAWrite)), n, iters)
	if read >= write {
		t.Fatalf("read (%.3fus) should beat write (%.3fus)", read, write)
	}
	t.Logf("4KB: read %.3fus, write %.3fus", read, write)
}

func TestNoInlineFasterForRendezvous(t *testing.T) {
	// Fig. 7: transmitting the rendezvous without inlined data avoids the
	// bounce-buffer copy; RDMA places data directly.
	for _, scheme := range []ptlelan4.Scheme{ptlelan4.RDMARead, ptlelan4.RDMAWrite} {
		noinline := ptlelan4.BestOptions(scheme)
		inline := ptlelan4.BestOptions(scheme)
		inline.InlineRndv = true
		const n, iters = 4096, 50
		li := pingpong(t, elanSpec(inline), n, iters)
		ln := pingpong(t, elanSpec(noinline), n, iters)
		if ln >= li {
			t.Fatalf("%v: no-inline (%.3fus) should beat inline (%.3fus)", scheme, ln, li)
		}
		t.Logf("%v 4KB: inline %.3fus, no-inline %.3fus", scheme, li, ln)
	}
}

func TestChainedFinFasterThanHostIssued(t *testing.T) {
	// Fig. 8: chaining the FIN_ACK to the last RDMA gives a (marginal)
	// improvement over host-issued completion for long messages.
	chain := ptlelan4.BestOptions(ptlelan4.RDMARead)
	nochain := ptlelan4.BestOptions(ptlelan4.RDMARead)
	nochain.ChainFin = false
	const n, iters = 8192, 50
	lc := pingpong(t, elanSpec(chain), n, iters)
	lnc := pingpong(t, elanSpec(nochain), n, iters)
	if lc >= lnc {
		t.Fatalf("chained (%.3fus) should beat no-chain (%.3fus)", lc, lnc)
	}
	t.Logf("8KB: chained %.3fus, no-chain %.3fus", lc, lnc)
}

func TestSharedCompletionQueueCostsMore(t *testing.T) {
	// Fig. 8: the shared completion queue adds an extra QDMA per RDMA, so
	// both One-Queue and Two-Queue cost more than per-descriptor events,
	// and the two are close to each other under polling.
	base := ptlelan4.BestOptions(ptlelan4.RDMARead)
	oneQ := base
	oneQ.CQ = ptlelan4.OneQueue
	twoQ := base
	twoQ.CQ = ptlelan4.TwoQueue
	const n, iters = 4096, 50
	l0 := pingpong(t, elanSpec(base), n, iters)
	l1 := pingpong(t, elanSpec(oneQ), n, iters)
	l2 := pingpong(t, elanSpec(twoQ), n, iters)
	if l1 <= l0 || l2 <= l0 {
		t.Fatalf("CQ (one %.3f, two %.3f) should cost more than NoCQ (%.3f)", l1, l2, l0)
	}
	if diff := l2 - l1; diff < -0.5 || diff > 0.5 {
		t.Fatalf("one-queue (%.3f) and two-queue (%.3f) should be close under polling", l1, l2)
	}
	t.Logf("4KB: nocq %.3f, one-queue %.3f, two-queue %.3f", l0, l1, l2)
}

func threadedSpec(threads int) cluster.Spec {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	if threads == 1 {
		opts.CQ = ptlelan4.OneQueue
	} else {
		opts.CQ = ptlelan4.TwoQueue
	}
	return cluster.Spec{Elan: &opts, Progress: pml.Threaded}
}

func TestThreadedProgress(t *testing.T) {
	// Table 1: polling < interrupt < one thread < two threads.
	const n, iters = 4, 30
	basic := pingpong(t, elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead)), n, iters)

	intSpec := elanSpec(func() ptlelan4.Options {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		o.CQ = ptlelan4.OneQueue
		return o
	}())
	intSpec.Progress = pml.InterruptWait
	interrupt := pingpong(t, intSpec, n, iters)

	one := pingpong(t, threadedSpec(1), n, iters)
	two := pingpong(t, threadedSpec(2), n, iters)

	t.Logf("4B: basic %.2f, interrupt %.2f, one-thread %.2f, two-thread %.2f", basic, interrupt, one, two)
	if !(basic < interrupt && interrupt < one && one < two) {
		t.Fatalf("ordering violated: basic %.2f, interrupt %.2f, one %.2f, two %.2f",
			basic, interrupt, one, two)
	}
	// The interrupt gap should be dominated by the ~10us interrupt cost.
	if gap := interrupt - basic; gap < 8 || gap > 16 {
		t.Fatalf("interrupt-basic gap %.2fus, want ≈10us", gap)
	}
}

func TestThreadedIntegrity(t *testing.T) {
	for _, threads := range []int{1, 2} {
		c := cluster.New(threadedSpec(threads), 2)
		const n = 200000
		ok := false
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(n)
			if p.Rank == 0 {
				p.Stack.Send(p.Th, 1, 1, 0, pattern(n, 3), dt).Wait(p.Th)
			} else {
				buf := make([]byte, n)
				p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
				ok = bytes.Equal(buf, pattern(n, 3))
			}
		})
		if err := c.Run(); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !ok {
			t.Fatalf("threads=%d: data corrupted", threads)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	opts.CQ = ptlelan4.OneQueue
	c := cluster.New(elanSpec(opts), 2)
	var sStats, rStats ptlelan4.Stats
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(100000)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 1, 0, pattern(100000, 1), dt).Wait(p.Th)
			sStats = p.Elan.Stats()
		} else {
			buf := make([]byte, 100000)
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
			rStats = p.Elan.Stats()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if sStats.RndvTx != 1 {
		t.Errorf("sender rndv = %d, want 1", sStats.RndvTx)
	}
	if rStats.GetOps != 1 {
		t.Errorf("receiver gets = %d, want 1", rStats.GetOps)
	}
	if rStats.FinAckTx != 1 {
		t.Errorf("receiver fin_acks = %d, want 1", rStats.FinAckTx)
	}
	if rStats.CQRecords != 1 {
		t.Errorf("receiver CQ records = %d, want 1", rStats.CQRecords)
	}
}

func TestDTPCostsMore(t *testing.T) {
	// Fig. 7: the datatype engine adds ≈0.4us per request vs memcpy.
	specNo := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead))
	specDTP := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead))
	specDTP.DTP = true
	const n, iters = 64, 50
	l0 := pingpong(t, specNo, n, iters)
	l1 := pingpong(t, specDTP, n, iters)
	gap := l1 - l0
	if gap < 0.3 || gap > 1.5 {
		t.Fatalf("DTP overhead %.3fus per half-RT, want ≈0.4-0.8us (two requests)", gap)
	}
	t.Logf("64B: memcpy %.3fus, DTP %.3fus", l0, l1)
}

func TestMultiProcessAllToAll(t *testing.T) {
	const n = 4
	c := cluster.New(elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead)), n)
	var okCount int
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(2048)
		var reqs []*pml.SendReq
		for dst := 0; dst < n; dst++ {
			if dst != p.Rank {
				reqs = append(reqs, p.Stack.Send(p.Th, dst, 10+p.Rank, 0, pattern(2048, byte(p.Rank)), dt))
			}
		}
		for src := 0; src < n; src++ {
			if src == p.Rank {
				continue
			}
			buf := make([]byte, 2048)
			p.Stack.Recv(p.Th, src, 10+src, 0, buf, dt).Wait(p.Th)
			if bytes.Equal(buf, pattern(2048, byte(src))) {
				okCount++
			}
		}
		for _, r := range reqs {
			r.Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if okCount != n*(n-1) {
		t.Fatalf("correct deliveries %d, want %d", okCount, n*(n-1))
	}
}

func TestMultiRailElanPlusTCP(t *testing.T) {
	// The multi-network requirement of §3: a single message striped
	// across Quadrics and TCP by the PML scheduler.
	opts := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
	tcpOpts := ptltcp.Options{Weight: 0.2}
	c := cluster.New(cluster.Spec{Elan: &opts, TCP: &tcpOpts, Progress: pml.Polling}, 2)
	const n = 1 << 20
	ok := false
	var elanBytes, tcpBytes int64
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(n)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 1, 0, pattern(n, 9), dt).Wait(p.Th)
			elanBytes = int64(p.Elan.Stats().PutOps)
			tcpBytes = p.TCP.Stats().BytesTx
		} else {
			buf := make([]byte, n)
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
			ok = bytes.Equal(buf, pattern(n, 9))
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("striped message corrupted")
	}
	if elanBytes == 0 || tcpBytes == 0 {
		t.Fatalf("striping did not use both rails: elan puts %d, tcp bytes %d", elanBytes, tcpBytes)
	}
}

func TestDynamicJoin(t *testing.T) {
	// §4.1: a process joins the Quadrics network after the initial job is
	// up, connects, communicates and leaves.
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	c := cluster.New(cluster.Spec{Elan: &opts, Progress: pml.Polling, Nodes: 3}, 2)
	got := make([]byte, 4096)
	// The announcement is a signal of the test's own, as it would ride the
	// job's launcher.
	joined := simtime.NewSignal()
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(4096)
		if p.Rank == 0 {
			// Accept the late joiner: wait for its announcement, connect,
			// then receive from it.
			joined.Wait(p.Th.Proc())
			c.ConnectPeers(p, []int{2})
			p.Stack.Recv(p.Th, 2, 5, 0, got, dt).Wait(p.Th)
		}
	})
	c.SpawnExtra(2, 2, "latecomer", func(p *cluster.Proc) {
		dt := datatype.Contiguous(4096)
		// Connect to rank 0 and announce.
		c.ConnectPeers(p, []int{0})
		joined.Fire()
		p.Stack.Send(p.Th, 0, 5, 0, pattern(4096, 42), dt).Wait(p.Th)
		p.Finalize()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(4096, 42)) {
		t.Fatal("dynamic joiner's message corrupted")
	}
}

func TestFinalizeWithThreads(t *testing.T) {
	c := cluster.New(threadedSpec(2), 2)
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(64)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 1, 0, pattern(64, 1), dt).Wait(p.Th)
		} else {
			buf := make([]byte, 64)
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
		}
		p.Finalize()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferPoolBackpressure(t *testing.T) {
	// A tiny send-buffer pool: a burst of eager sends must stall at the
	// pool (the preallocated-buffer design of §5), never exceed it, and
	// still deliver everything.
	c := cluster.New(slotsSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), 4), 2)
	const msgs = 24
	received := 0
	var stats ptlelan4.Stats
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(256)
		if p.Rank == 0 {
			var reqs []*pml.SendReq
			for i := 0; i < msgs; i++ {
				reqs = append(reqs, p.Stack.Send(p.Th, 1, i, 0, pattern(256, byte(i)), dt))
			}
			for _, r := range reqs {
				r.Wait(p.Th)
			}
			stats = p.Elan.Stats()
		} else {
			// Sleep first: the 4-slot receive ring fills and NACKs, so
			// unacknowledged sends hold their buffers and the pool drains.
			p.Th.Proc().Sleep(300 * simtime.Microsecond)
			for i := 0; i < msgs; i++ {
				buf := make([]byte, 256)
				p.Stack.Recv(p.Th, 0, i, 0, buf, dt).Wait(p.Th)
				if bytes.Equal(buf, pattern(256, byte(i))) {
					received++
				}
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if received != msgs {
		t.Fatalf("received %d/%d under buffer pressure", received, msgs)
	}
	if stats.SendBufHighWater > 4 {
		t.Fatalf("high water %d exceeds the pool of 4", stats.SendBufHighWater)
	}
	if stats.SendBufStalls == 0 {
		t.Fatal("a 24-message burst through 4 buffers must stall")
	}
}

// TestEagerIncastPayloads: seven senders burst 64 eager messages each into
// one rank, which has posted every receive, under polling progress and
// under one and two progress threads. Every payload must arrive as sent.
// The PML matches an eager body in place from the receive queue's
// backing and charges its match cost while it still reads it, so a queue
// message released to its ring before its handler returns is overwritten
// by the next deposit.
func TestEagerIncastPayloads(t *testing.T) {
	const senders, msgs, size = 7, 64, 512
	payload := func(src, i int) []byte {
		b := pattern(size, byte(src*msgs+i))
		b[0], b[1] = byte(src), byte(i)
		return b
	}
	for _, mode := range []struct {
		name string
		spec cluster.Spec
	}{
		{"polling", elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead))},
		{"one-thread", threadedSpec(1)},
		{"two-threads", threadedSpec(2)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c := cluster.New(mode.spec, senders+1)
			good := 0
			c.Launch(func(p *cluster.Proc) {
				dt := datatype.Contiguous(size)
				if p.Rank != 0 {
					for i := 0; i < msgs; i++ {
						p.Stack.Send(p.Th, 0, i, 0, payload(p.Rank, i), dt)
					}
					p.Stack.Block(p.Th, func() bool { return p.Stack.PendingSends() == 0 }, true)
					return
				}
				bufs := make([][]byte, senders*msgs)
				reqs := make([]*pml.RecvReq, len(bufs))
				for j := range bufs {
					bufs[j] = make([]byte, size)
					reqs[j] = p.Stack.Recv(p.Th, 1+j/msgs, j%msgs, 0, bufs[j], dt)
				}
				for j, r := range reqs {
					r.Wait(p.Th)
					if bytes.Equal(bufs[j], payload(1+j/msgs, j%msgs)) {
						good++
					}
				}
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if good != senders*msgs {
				t.Fatalf("%d of %d payloads arrived as sent", good, senders*msgs)
			}
		})
	}
}

func TestRandomizedTrafficProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		scheme := ptlelan4.RDMARead
		if trial%2 == 1 {
			scheme = ptlelan4.RDMAWrite
		}
		c := cluster.New(elanSpec(ptlelan4.BestOptions(scheme)), 2)
		const msgs = 25
		sizes := make([]int, msgs)
		for i := range sizes {
			sizes[i] = rng.Intn(300000)
		}
		bufs := make([][]byte, msgs)
		c.Launch(func(p *cluster.Proc) {
			if p.Rank == 0 {
				var reqs []*pml.SendReq
				for i, n := range sizes {
					reqs = append(reqs, p.Stack.Send(p.Th, 1, i, 0, pattern(n, byte(i)), datatype.Contiguous(n)))
				}
				for _, r := range reqs {
					r.Wait(p.Th)
				}
			} else {
				var reqs []*pml.RecvReq
				for i, n := range sizes {
					bufs[i] = make([]byte, n)
					reqs = append(reqs, p.Stack.Recv(p.Th, 0, i, 0, bufs[i], datatype.Contiguous(n)))
				}
				for _, r := range reqs {
					r.Wait(p.Th)
				}
			}
		})
		if err := c.Run(); err != nil {
			t.Fatalf("trial %d (%v): %v", trial, scheme, err)
		}
		for i, n := range sizes {
			if !bytes.Equal(bufs[i], pattern(n, byte(i))) {
				t.Fatalf("trial %d: message %d (size %d) corrupted", trial, i, n)
			}
		}
	}
}

// TestDescriptorsReturned: below the request handle every per-message object
// is taken from a free list and handed back at the terminal point it already
// had — a NIC's descriptors, a module's send-buffer events and RDMA
// descriptors, the PML's queued first fragments — so when a run is over each
// list has had exactly as many puts as gets, under every scheme, completion
// strategy and progress mode, with the receive queues overrun (NACK and
// retry, fragments parked out of sequence and unexpected) and with Finalize
// called while sends are still draining.
func TestDescriptorsReturned(t *testing.T) {
	type variant struct {
		name string
		spec cluster.Spec
	}
	var variants []variant
	for _, scheme := range []ptlelan4.Scheme{ptlelan4.RDMARead, ptlelan4.RDMAWrite} {
		for _, cq := range []ptlelan4.CQMode{ptlelan4.NoCQ, ptlelan4.OneQueue, ptlelan4.TwoQueue} {
			for _, chain := range []bool{true, false} {
				o := ptlelan4.BestOptions(scheme)
				o.CQ, o.ChainFin, o.InlineRndv = cq, chain, !chain
				fin := "/host-fin"
				if chain {
					fin = "/chained"
				}
				variants = append(variants, variant{scheme.String() + "/" + cq.String() + fin, slotsSpec(o, 4)})
			}
		}
	}
	variants = append(variants, variant{"one-thread", threadedSpec(1)}, variant{"two-threads", threadedSpec(2)})

	const ranks, burst = 3, 12
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			c := cluster.New(v.spec, ranks)
			var retries, parked int64
			c.Launch(func(p *cluster.Proc) {
				small, big := datatype.Contiguous(256), datatype.Contiguous(40000)
				var sends []*pml.SendReq
				if p.Rank > 0 {
					// Two senders overrun rank 0's four-slot ring while it
					// computes, then follow with one rendezvous each.
					for i := 0; i < burst; i++ {
						sends = append(sends, p.Stack.Send(p.Th, 0, i, 0, pattern(256, byte(i)), small))
					}
					sends = append(sends, p.Stack.Send(p.Th, 0, burst, 0, pattern(40000, 9), big))
				} else {
					p.Th.Compute(200 * simtime.Microsecond)
					for src := 1; src < ranks; src++ {
						// Last first: everything before it is unexpected.
						p.Stack.Recv(p.Th, src, burst, 0, make([]byte, 40000), big).Wait(p.Th)
						for i := burst - 1; i >= 0; i-- {
							p.Stack.Recv(p.Th, src, i, 0, make([]byte, 256), small).Wait(p.Th)
						}
					}
					// Sends nobody has waited for when Finalize is called.
					for dst := 1; dst < ranks; dst++ {
						sends = append(sends, p.Stack.Send(p.Th, dst, 99, 0, pattern(40000, 3), big))
					}
				}
				if p.Rank > 0 {
					p.Stack.Recv(p.Th, 0, 99, 0, make([]byte, 40000), big).Wait(p.Th)
				}
				p.Finalize()
				for _, r := range sends {
					if !r.Done() {
						t.Errorf("rank %d: a send outlived Finalize", p.Rank)
					}
				}
				parked += p.Stack.Stats().ReorderedMsgs
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			balanced := func(what string, rank int, s bufpool.ListStats) {
				if s.Gets != s.Puts {
					t.Errorf("rank %d: %s taken %d times, returned %d times", rank, what, s.Gets, s.Puts)
				}
			}
			for i, nic := range c.NICs[:ranks] {
				balanced("NIC descriptors", i, nic.Stats().Descriptors)
				retries += nic.Stats().Retries
			}
			for _, p := range c.Procs() {
				ms, ps := p.Elan.Stats(), p.Stack.Stats()
				balanced("send-buffer events", p.Rank, ms.SlotEvents)
				balanced("RDMA descriptors", p.Rank, ms.LocalOps)
				balanced("queued fragments", p.Rank, ps.Frags)
				// Rank 0 receives a rendezvous and sends one, so it issues RDMA
				// under either scheme.
				if p.Rank == 0 && (ms.SlotEvents.Gets == 0 || ms.LocalOps.Gets == 0 || ps.Frags.Gets == 0) {
					t.Errorf("rank 0 left a list untouched: %+v %+v %+v", ms.SlotEvents, ms.LocalOps, ps.Frags)
				}
			}
			if v.spec.Progress != pml.Threaded && retries == 0 {
				t.Error("the receive queue was never overrun: no QDMA was retried")
			}
			t.Logf("%d QDMA retries, %d fragments parked out of sequence", retries, parked)
		})
	}
}

// TestAddProcsRejectsMalformedVPID: a peer whose modex entry is not a
// four-byte VPID is refused with an error naming it.
func TestAddProcsRejectsMalformedVPID(t *testing.T) {
	c := cluster.New(elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead)), 2)
	var err error
	c.Launch(func(p *cluster.Proc) {
		if p.Rank == 0 {
			p.RTE.Publish(p.Th, "elan4:vpid", []byte{1, 2, 3})
			return
		}
		p.Th.Proc().Sleep(simtime.Millisecond)
		err = p.Elan.AddProcs(p.Th, []ptl.Peer{{Rank: 1, Name: cluster.ProcName(1)}, {Rank: 0, Name: cluster.ProcName(0)}})
	})
	if runErr := c.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if want := `ptlelan4: bad vpid modex entry for "` + cluster.ProcName(0) + `"`; err == nil || err.Error() != want {
		t.Errorf("AddProcs returned %v, want %s", err, want)
	}
}
