package elan4

import (
	"bytes"
	"testing"

	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
)

func TestHardwareBroadcastDelivery(t *testing.T) {
	const nodes = 8
	b := newBed(t, nodes)
	queues := make([]*RecvQueue, nodes)
	for i := 1; i < nodes; i++ {
		queues[i] = b.ctx[i].CreateQueue(1, 8)
	}
	payload := []byte("hw-broadcast payload")
	dsts := make([]int, 0, nodes-1)
	for i := 1; i < nodes; i++ {
		dsts = append(dsts, i)
	}
	done := b.ctx[0].NewEvent(1)
	word := simtime.NewCounter()
	done.SetHostWord(word)
	var doneAt simtime.Time
	b.host[0].Spawn("root", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMABcast(th, dsts, 1, payload, done, func(err error) { t.Error(err) })
		word.WaitFor(th.Proc(), 1)
		doneAt = th.Now()
	})
	arrivals := make([]simtime.Time, nodes)
	for i := 1; i < nodes; i++ {
		i := i
		b.host[i].Spawn("leaf", func(th *simtime.Thread) {
			queues[i].HostWord().WaitFor(th.Proc(), 1)
			m, ok := queues[i].Poll()
			if !ok || !bytes.Equal(m.Data, payload) {
				t.Errorf("node %d: bad broadcast delivery", i)
			}
			if m.SrcVPID != 0 {
				t.Errorf("node %d: src vpid %d", i, m.SrcVPID)
			}
			arrivals[i] = th.Now()
		})
	}
	b.k.Run()
	if doneAt == 0 {
		t.Fatal("broadcast completion event never fired")
	}
	// All arrivals within a tight window: switch replication, not serial
	// unicasts (7 serial sends would spread arrivals over ~7
	// serializations).
	var min, max simtime.Time
	for i := 1; i < nodes; i++ {
		if arrivals[i] == 0 {
			t.Fatalf("node %d never received", i)
		}
		if min == 0 || arrivals[i] < min {
			min = arrivals[i]
		}
		if arrivals[i] > max {
			max = arrivals[i]
		}
	}
	if spread := (max - min).Micros(); spread > 1.0 {
		t.Fatalf("arrival spread %.3fus: broadcast is not switch-replicated", spread)
	}
	for i := 1; i < nodes; i++ {
		if doneAt < arrivals[i] {
			t.Fatal("completion fired before all deposits acknowledged")
		}
	}
}

func TestHardwareBroadcastBeatsSerialUnicast(t *testing.T) {
	const nodes = 8
	payload := make([]byte, 1024)
	dsts := []int{1, 2, 3, 4, 5, 6, 7}

	run := func(bcast bool) simtime.Time {
		b := newBed(t, nodes)
		for i := 1; i < nodes; i++ {
			b.ctx[i].CreateQueue(1, 8)
		}
		done := b.ctx[0].NewEvent(1)
		word := simtime.NewCounter()
		done.SetHostWord(word)
		var at simtime.Time
		b.host[0].Spawn("root", func(th *simtime.Thread) {
			if bcast {
				b.ctx[0].IssueQDMABcast(th, dsts, 1, payload, done, nil)
				word.WaitFor(th.Proc(), 1)
			} else {
				for _, d := range dsts {
					ev := b.ctx[0].NewEvent(1)
					w := simtime.NewCounter()
					ev.SetHostWord(w)
					b.ctx[0].IssueQDMA(th, d, 1, payload, ev, nil)
					if d == dsts[len(dsts)-1] {
						w.WaitFor(th.Proc(), 1)
					}
				}
			}
			at = th.Now()
		})
		b.k.Run()
		return at
	}

	hw := run(true)
	serial := run(false)
	if hw >= serial {
		t.Fatalf("hardware broadcast (%v) not faster than serial unicast (%v)", hw, serial)
	}
	t.Logf("1KB to 7 peers: hw bcast %v, serial unicast %v", hw, serial)
}

func TestBroadcastToUnknownVPIDFails(t *testing.T) {
	b := newBed(t, 2)
	b.ctx[1].CreateQueue(1, 4)
	var gotErr error
	b.host[0].Spawn("root", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMABcast(th, []int{1, 99}, 1, []byte("x"), nil, func(err error) { gotErr = err })
	})
	b.k.Run()
	if gotErr == nil {
		t.Fatal("broadcast including an unknown VPID must report failure")
	}
	// The reachable destination still gets its copy.
	if b.ctx[1].queues[1].Deposits() != 1 {
		t.Fatal("reachable destination missed the broadcast")
	}
}

func TestChainedRDMAAfterRDMA(t *testing.T) {
	// The chained-event mechanism supports "fast and asynchronous
	// progress of two back-to-back operations" (§3.1): the completion of
	// one RDMA triggers a second, entirely on the NIC.
	b := newBed(t, 2)
	const n = 4096
	src1 := make([]byte, n)
	src2 := make([]byte, n)
	for i := range src1 {
		src1[i] = byte(i)
		src2[i] = byte(i * 3)
	}
	dst1 := make([]byte, n)
	dst2 := make([]byte, n)
	s1 := b.ctx[0].Register(src1)
	s2 := b.ctx[0].Register(src2)
	d1 := b.ctx[1].Register(dst1)
	d2 := b.ctx[1].Register(dst2)

	ev2 := b.ctx[0].NewEvent(1)
	word2 := simtime.NewCounter()
	ev2.SetHostWord(word2)
	ev1 := b.ctx[0].NewEvent(1)
	ctx := b.ctx[0]
	// When RDMA 1 completes, the NIC launches RDMA 2 with no host help.
	ev1.Chain(func() {
		ctx.IssueRDMAWriteFromNIC(1, s2, d2, n, ev2, nil)
	})
	b.host[0].Spawn("writer", func(th *simtime.Thread) {
		b.ctx[0].IssueRDMAWrite(th, 1, s1, d1, n, ev1, nil)
		word2.WaitFor(th.Proc(), 1)
	})
	b.k.Run()
	if !bytes.Equal(dst1, src1) || !bytes.Equal(dst2, src2) {
		t.Fatal("chained back-to-back RDMA corrupted data")
	}
}

func TestBidirectionalRDMAStorm(t *testing.T) {
	// Both nodes issue interleaved RDMA reads and writes against each
	// other simultaneously, so every NIC is sending a stream, serving a
	// read and placing both kinds at once; every byte of every buffer must
	// be what it should be and every completion event must fire exactly
	// once, at each length around a packet boundary.
	for _, sz := range append(streamSizes(model.Default().MTU), 3000) {
		stormAt(t, sz)
	}
}

func stormAt(t *testing.T, sz int) {
	b := newBed(t, 2)
	defer b.k.Close()
	const ops = 16
	type side struct {
		src, dst, pull   []byte // pushed from, pushed into (at the peer), pulled into
		srcA, dstA, pulA E4Addr
	}
	mk := func(owner, peer int, seed byte) side {
		s := side{src: make([]byte, ops*sz), dst: make([]byte, ops*sz), pull: make([]byte, ops*sz)}
		for i := range s.src {
			s.src[i] = byte(i)*seed + seed
		}
		s.srcA, s.dstA, s.pulA = b.ctx[owner].Register(s.src), b.ctx[peer].Register(s.dst), b.ctx[owner].Register(s.pull)
		return s
	}
	sides := [2]side{mk(0, 1, 3), mk(1, 0, 5)}
	fired := [2]int{}
	for node := 0; node < 2; node++ {
		s, peer := sides[node], sides[1-node]
		b.host[node].Spawn("storm", func(th *simtime.Thread) {
			word := simtime.NewCounter()
			for i := 0; i < ops; i++ {
				ev := b.ctx[node].NewEvent(1)
				ev.SetHostWord(word)
				off := i * sz
				if i%2 == 0 {
					b.ctx[node].IssueRDMAWrite(th, 1-node, s.srcA.Add(off), s.dstA.Add(off), sz, ev, nil)
				} else {
					b.ctx[node].IssueRDMARead(th, 1-node, peer.srcA.Add(off), s.pulA.Add(off), sz, ev, nil)
				}
			}
			word.WaitFor(th.Proc(), ops)
			fired[node] = int(word.Value())
		})
	}
	b.k.Run()
	for node, s := range sides {
		// Even slots were written into the peer, odd slots pulled from it;
		// the other half of each buffer must still be zero.
		wantDst, wantPull := make([]byte, ops*sz), make([]byte, ops*sz)
		for i := 0; i < ops; i++ {
			off := i * sz
			if i%2 == 0 {
				copy(wantDst[off:off+sz], s.src[off:off+sz])
			} else {
				copy(wantPull[off:off+sz], sides[1-node].src[off:off+sz])
			}
		}
		if !bytes.Equal(s.dst, wantDst) {
			t.Fatalf("size %d: writes of node %d corrupted", sz, node)
		}
		if !bytes.Equal(s.pull, wantPull) {
			t.Fatalf("size %d: reads of node %d corrupted", sz, node)
		}
	}
	if fired[0] != ops || fired[1] != ops {
		t.Fatalf("size %d: completions %v, want %d each", sz, fired, ops)
	}
}

func TestBroadcastLoopbackIncluded(t *testing.T) {
	b := newBed(t, 2)
	q0 := b.ctx[0].CreateQueue(1, 4)
	b.ctx[1].CreateQueue(1, 4)
	b.host[0].Spawn("root", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMABcast(th, []int{0, 1}, 1, []byte("self-too"), nil, nil)
	})
	b.k.Run()
	if q0.Deposits() != 1 {
		t.Fatal("loopback broadcast destination missed")
	}
}
