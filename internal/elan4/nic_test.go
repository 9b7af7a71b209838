package elan4

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"qsmpi/internal/fabric"
	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
)

// staticResolver is a fixed VPID→(port,ctx) table; tests mutate it to
// exercise dynamic relocation.
type staticResolver map[int][2]int

func (r staticResolver) Resolve(vpid int) (int, int, bool) {
	e, ok := r[vpid]
	return e[0], e[1], ok
}

type bed struct {
	k    *simtime.Kernel
	cfg  model.Config
	net  *fabric.Network
	res  staticResolver
	host []*simtime.Host
	nic  []*NIC
	ctx  []*Context
}

func newBedFabric(k *simtime.Kernel, cfg model.Config, n int) *fabric.Network {
	return fabric.New(k, fabric.Params{
		LinkBandwidth:  cfg.LinkBandwidth,
		WireLatency:    cfg.WireLatency,
		SwitchLatency:  cfg.SwitchLatency,
		MTU:            cfg.MTU,
		PacketOverhead: cfg.PacketOverhead,
		Arity:          cfg.FatTreeRadix,
	}, n)
}

// newBed builds n nodes, one NIC and one context each, VPID i → node i.
func newBed(t testing.TB, n int) *bed {
	t.Helper()
	cfg := model.Default()
	k := simtime.NewKernel()
	b := &bed{k: k, cfg: cfg, net: newBedFabric(k, cfg, n), res: staticResolver{}}
	for i := 0; i < n; i++ {
		h := simtime.NewHost(k, fmt.Sprintf("n%d", i), cfg.HostCPUs)
		nic := NewNIC(k, h, b.net, i, cfg, b.res)
		c := nic.OpenContext(0)
		c.SetVPID(i)
		b.res[i] = [2]int{i, 0}
		b.host = append(b.host, h)
		b.nic = append(b.nic, nic)
		b.ctx = append(b.ctx, c)
	}
	return b
}

func TestQDMADelivery(t *testing.T) {
	b := newBed(t, 2)
	q := b.ctx[1].CreateQueue(7, 8)
	payload := []byte("hello elan4 queued dma")
	var got QueuedMsg
	var at simtime.Time
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMA(th, 1, 7, payload, nil, nil)
	})
	b.host[1].Spawn("recv", func(th *simtime.Thread) {
		q.HostWord().WaitFor(th.Proc(), 1)
		m, ok := q.Poll()
		if !ok {
			t.Error("deposit signaled but queue empty")
		}
		got = m
		at = th.Now()
	})
	b.k.Run()
	if !bytes.Equal(got.Data, payload) {
		t.Fatalf("payload = %q, want %q", got.Data, payload)
	}
	if got.SrcVPID != 0 {
		t.Fatalf("src vpid = %d, want 0", got.SrcVPID)
	}
	us := at.Micros()
	if us < 0.5 || us > 5 {
		t.Fatalf("QDMA latency %.3fus implausible", us)
	}
}

func TestQDMADoneEvent(t *testing.T) {
	b := newBed(t, 2)
	b.ctx[1].CreateQueue(1, 4)
	done := b.ctx[0].NewEvent(1)
	word := simtime.NewCounter()
	done.SetHostWord(word)
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMA(th, 1, 1, []byte("x"), done, nil)
		word.WaitFor(th.Proc(), 1)
	})
	b.k.Run()
	if done.Fires() != 1 {
		t.Fatalf("done fired %d times, want 1", done.Fires())
	}
	if st := b.k.Stalled(); len(st) != 0 {
		t.Fatalf("stalled procs: %v", st)
	}
}

func TestQDMAOversizePanics(t *testing.T) {
	b := newBed(t, 2)
	b.ctx[1].CreateQueue(1, 4)
	panicked := false
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		defer func() { panicked = recover() != nil }()
		b.ctx[0].IssueQDMA(th, 1, 1, make([]byte, 4096), nil, nil)
	})
	b.k.Run()
	if !panicked {
		t.Fatal("expected panic for oversize QDMA")
	}
}

func TestQDMAQueueFullNACKAndRetry(t *testing.T) {
	b := newBed(t, 2)
	q := b.ctx[1].CreateQueue(1, 2) // tiny ring
	const msgs = 6
	received := 0
	seen := make(map[byte]int)
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		for i := 0; i < msgs; i++ {
			b.ctx[0].IssueQDMA(th, 1, 1, []byte{byte(i)}, nil, nil)
		}
	})
	b.host[1].Spawn("recv", func(th *simtime.Thread) {
		for received < msgs {
			q.HostWord().WaitFor(th.Proc(), q.Deposits()+1)
			// Drain slowly so the ring overflows.
			th.Proc().Sleep(50 * simtime.Microsecond)
			for {
				m, ok := q.Poll()
				if !ok {
					break
				}
				seen[m.Data[0]]++
				received++
			}
		}
	})
	b.k.Run()
	if received != msgs {
		t.Fatalf("received %d, want %d", received, msgs)
	}
	// Retries may reorder around an overflow (upper layers re-sequence),
	// but every message must arrive exactly once.
	for i := 0; i < msgs; i++ {
		if seen[byte(i)] != 1 {
			t.Fatalf("message %d delivered %d times", i, seen[byte(i)])
		}
	}
	if q.Rejects() == 0 {
		t.Fatal("expected ring-full rejects with a 2-slot queue and 6 messages")
	}
	if b.nic[0].Stats().Retries == 0 {
		t.Fatal("sender NIC should have retried NACKed QDMAs")
	}
}

func TestQDMAToMissingQueueFails(t *testing.T) {
	b := newBed(t, 2)
	var gotErr error
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMA(th, 1, 99, []byte("x"), nil, func(err error) { gotErr = err })
	})
	b.k.Run()
	if gotErr == nil {
		t.Fatal("QDMA to a queue that was never created must fail")
	}
}

func TestQDMAToUnknownVPIDFails(t *testing.T) {
	b := newBed(t, 2)
	var gotErr error
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMA(th, 42, 1, []byte("x"), nil, func(err error) { gotErr = err })
	})
	b.k.Run()
	if gotErr == nil {
		t.Fatal("QDMA to unknown VPID must fail")
	}
}

func rdmaWrite(t *testing.T, size int) simtime.Time {
	t.Helper()
	b := newBed(t, 2)
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, size)
	srcAddr := b.ctx[0].Register(src)
	dstAddr := b.ctx[1].Register(dst)
	done := b.ctx[0].NewEvent(1)
	word := simtime.NewCounter()
	done.SetHostWord(word)
	var doneAt simtime.Time
	b.host[0].Spawn("writer", func(th *simtime.Thread) {
		b.ctx[0].IssueRDMAWrite(th, 1, srcAddr, dstAddr, size, done, func(err error) { t.Error(err) })
		word.WaitFor(th.Proc(), 1)
		doneAt = th.Now()
	})
	b.k.Run()
	if !bytes.Equal(dst, src) {
		t.Fatalf("RDMA write corrupted data at size %d", size)
	}
	return doneAt
}

func TestRDMAWriteSizes(t *testing.T) {
	var prev simtime.Time
	for _, size := range []int{0, 1, 100, 2048, 2049, 10000, 65536, 1 << 20} {
		at := rdmaWrite(t, size)
		if at == 0 {
			t.Fatalf("size %d: completion never observed", size)
		}
		if at < prev {
			t.Fatalf("size %d completed at %v, faster than smaller size (%v)", size, at, prev)
		}
		prev = at
	}
}

func TestRDMAWriteBandwidth(t *testing.T) {
	const size = 1 << 20
	at := rdmaWrite(t, size)
	bw := float64(size) / (float64(at) / float64(simtime.Second))
	// Bottleneck is PCI-X at 1.067 GB/s; allow protocol overhead headroom.
	if bw < 0.85e9 || bw > 1.1e9 {
		t.Fatalf("1MB RDMA write bandwidth %.3g B/s, want ≈1.0e9", bw)
	}
}

func TestRDMAWriteFaults(t *testing.T) {
	b := newBed(t, 2)
	src := make([]byte, 64)
	srcAddr := b.ctx[0].Register(src)
	dst := make([]byte, 64)
	dstAddr := b.ctx[1].Register(dst)

	var localErr, remoteErr, rangeErr error
	b.host[0].Spawn("writer", func(th *simtime.Thread) {
		// Unmapped local source.
		b.ctx[0].IssueRDMAWrite(th, 1, E4Addr(999<<32), dstAddr, 64, nil, func(err error) { localErr = err })
		// Unmapped remote destination.
		b.ctx[0].IssueRDMAWrite(th, 1, srcAddr, E4Addr(999<<32), 64, nil, func(err error) { remoteErr = err })
		// Out-of-bounds length.
		b.ctx[0].IssueRDMAWrite(th, 1, srcAddr, dstAddr, 128, nil, func(err error) { rangeErr = err })
	})
	b.k.Run()
	for name, err := range map[string]error{"local": localErr, "remote": remoteErr, "range": rangeErr} {
		if err == nil {
			t.Errorf("%s fault not reported", name)
		}
	}
}

func TestRDMARead(t *testing.T) {
	b := newBed(t, 2)
	const size = 100 * 1000
	remote := make([]byte, size)
	for i := range remote {
		remote[i] = byte(i * 13)
	}
	local := make([]byte, size)
	remoteAddr := b.ctx[1].Register(remote)
	localAddr := b.ctx[0].Register(local)
	done := b.ctx[0].NewEvent(1)
	word := simtime.NewCounter()
	done.SetHostWord(word)
	b.host[0].Spawn("reader", func(th *simtime.Thread) {
		b.ctx[0].IssueRDMARead(th, 1, remoteAddr, localAddr, size, done, func(err error) { t.Error(err) })
		word.WaitFor(th.Proc(), 1)
	})
	b.k.Run()
	if !bytes.Equal(local, remote) {
		t.Fatal("RDMA read corrupted data")
	}
}

func TestRDMAReadFaultAtTarget(t *testing.T) {
	b := newBed(t, 2)
	local := make([]byte, 64)
	localAddr := b.ctx[0].Register(local)
	var gotErr error
	b.host[0].Spawn("reader", func(th *simtime.Thread) {
		b.ctx[0].IssueRDMARead(th, 1, E4Addr(7<<32), localAddr, 64, nil, func(err error) { gotErr = err })
	})
	b.k.Run()
	if gotErr == nil {
		t.Fatal("read from unmapped remote region must fail")
	}
}

func TestChainedQDMAFiresAfterRDMA(t *testing.T) {
	// The paper's optimization: a FIN/FIN_ACK QDMA chained to the last
	// RDMA fires on the NIC with no host involvement, and must arrive at
	// the peer after the data is placed.
	b := newBed(t, 2)
	const size = 32 * 1024
	src := make([]byte, size)
	for i := range src {
		src[i] = 0xAB
	}
	dst := make([]byte, size)
	srcAddr := b.ctx[0].Register(src)
	dstAddr := b.ctx[1].Register(dst)
	finQ := b.ctx[1].CreateQueue(3, 4)

	done := b.ctx[0].NewEvent(1)
	done.Chain(func() { b.ctx[0].QDMAFromNIC(1, 3, []byte("FIN"), nil, nil) })

	dataOK := false
	b.host[0].Spawn("writer", func(th *simtime.Thread) {
		b.ctx[0].IssueRDMAWrite(th, 1, srcAddr, dstAddr, size, done, func(err error) { t.Error(err) })
	})
	b.host[1].Spawn("recv", func(th *simtime.Thread) {
		finQ.HostWord().WaitFor(th.Proc(), 1)
		m, _ := finQ.Poll()
		if string(m.Data) != "FIN" {
			t.Errorf("chained message = %q", m.Data)
		}
		dataOK = bytes.Equal(dst, src)
	})
	b.k.Run()
	if !dataOK {
		t.Fatal("FIN arrived before RDMA data was fully placed")
	}
}

func TestEventCountN(t *testing.T) {
	// One event with count 3 fires exactly once, after the third
	// completion (Fig. 5b).
	b := newBed(t, 2)
	dst := make([]byte, 3*4096)
	src := make([]byte, 3*4096)
	srcAddr := b.ctx[0].Register(src)
	dstAddr := b.ctx[1].Register(dst)
	ev := b.ctx[0].NewEvent(3)
	word := simtime.NewCounter()
	ev.SetHostWord(word)
	b.host[0].Spawn("writer", func(th *simtime.Thread) {
		for i := 0; i < 3; i++ {
			b.ctx[0].IssueRDMAWrite(th, 1, srcAddr.Add(i*4096), dstAddr.Add(i*4096), 4096, ev, nil)
		}
		word.WaitFor(th.Proc(), 1)
	})
	b.k.Run()
	if ev.Fires() != 1 {
		t.Fatalf("count-3 event fired %d times, want 1", ev.Fires())
	}
	if ev.Count() != 0 {
		t.Fatalf("count = %d, want 0", ev.Count())
	}
}

func TestInterruptWakesBlockedThread(t *testing.T) {
	b := newBed(t, 2)
	q := b.ctx[1].CreateQueue(1, 4)
	var sendAt, wakeAt simtime.Time
	b.host[1].Spawn("blocker", func(th *simtime.Thread) {
		sig := simtime.NewSignal()
		q.ArmInterrupt(sig)
		th.BlockOn(sig, b.cfg.ThreadWake)
		wakeAt = th.Now()
		if _, ok := q.Poll(); !ok {
			t.Error("woken with empty queue")
		}
	})
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		th.Proc().Sleep(5 * simtime.Microsecond)
		sendAt = th.Now()
		b.ctx[0].IssueQDMA(th, 1, 1, []byte("irq"), nil, nil)
	})
	b.k.Run()
	if wakeAt == 0 {
		t.Fatal("blocked thread never woke")
	}
	lat := wakeAt.Sub(sendAt)
	if lat < b.cfg.InterruptLatency {
		t.Fatalf("woke after %v, below interrupt latency %v", lat, b.cfg.InterruptLatency)
	}
	if b.nic[1].Stats().Interrupts != 1 {
		t.Fatalf("interrupts = %d, want 1", b.nic[1].Stats().Interrupts)
	}
}

// TestEventResetRace reproduces Fig. 5(c,d): with N outstanding RDMA
// completions all decrementing one count-1 event, a host that re-arms by
// resetting the count loses completions that land during the reset window.
// The shared-completion-queue strategy (chained QDMA per RDMA into a
// receive queue) observes every completion.
func TestEventResetRace(t *testing.T) {
	const outstanding = 8

	racyFires := func() int64 {
		b := newBed(t, 2)
		src := make([]byte, outstanding*256)
		dst := make([]byte, outstanding*256)
		srcAddr := b.ctx[0].Register(src)
		dstAddr := b.ctx[1].Register(dst)
		ev := b.ctx[0].NewEvent(1)
		word := simtime.NewCounter()
		ev.SetHostWord(word)
		b.host[0].Spawn("writer", func(th *simtime.Thread) {
			for i := 0; i < outstanding; i++ {
				b.ctx[0].IssueRDMAWrite(th, 1, srcAddr.Add(i*256), dstAddr.Add(i*256), 256, ev, nil)
			}
			// Progress loop: each observed fire, reset the count to 1 and
			// wait again — the unsound pattern.
			seen := int64(0)
			for seen < outstanding {
				word.WaitFor(th.Proc(), seen+1)
				seen++
				if seen == word.Value() && seen < outstanding {
					b.ctx[0].ResetEventCountRacy(th, ev, 1)
				}
				// Give up once the kernel would stall: detected below.
				if ev.Count() < 0 {
					return
				}
			}
		})
		b.k.Run()
		return ev.Fires()
	}

	fires := racyFires()
	if fires >= outstanding {
		t.Fatalf("racy reset observed all %d completions; the race did not manifest", outstanding)
	}

	// Shared completion queue: every RDMA chains a QDMA into a local
	// receive queue; nothing is lost.
	b := newBed(t, 2)
	src := make([]byte, outstanding*256)
	dst := make([]byte, outstanding*256)
	srcAddr := b.ctx[0].Register(src)
	dstAddr := b.ctx[1].Register(dst)
	cq := b.ctx[0].CreateQueue(9, outstanding*2)
	completions := 0
	b.host[0].Spawn("writer", func(th *simtime.Thread) {
		for i := 0; i < outstanding; i++ {
			ev := b.ctx[0].NewEvent(1)
			ev.Chain(func() { b.ctx[0].QDMAFromNIC(0, 9, []byte{byte(i)}, nil, nil) }) // loopback QDMA to own CQ
			b.ctx[0].IssueRDMAWrite(th, 1, srcAddr.Add(i*256), dstAddr.Add(i*256), 256, ev, nil)
		}
		for completions < outstanding {
			cq.HostWord().WaitFor(th.Proc(), int64(completions+1))
			for {
				if _, ok := cq.Poll(); !ok {
					break
				}
				completions++
			}
		}
	})
	b.k.Run()
	if completions != outstanding {
		t.Fatalf("shared completion queue saw %d/%d completions", completions, outstanding)
	}
}

func TestDynamicRelocation(t *testing.T) {
	// A VPID moves to a different node between a NACK and its retry; the
	// retry re-resolves and delivers to the new location.
	b := newBed(t, 3)
	qOld := b.ctx[1].CreateQueue(1, 1)
	qNew := b.ctx[2].CreateQueue(1, 4)
	// Fill the old queue so the first delivery NACKs.
	b.host[0].Spawn("filler", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMA(th, 1, 1, []byte("fill"), nil, nil)
	})
	var moved bool
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		th.Proc().Sleep(10 * simtime.Microsecond)
		b.ctx[0].IssueQDMA(th, 1, 1, []byte("follow-me"), nil, func(err error) { t.Error(err) })
		// While the retry backoff runs, "migrate" VPID 1 to node 2.
		th.Proc().Sleep(2 * simtime.Microsecond)
		b.res[1] = [2]int{2, 0}
		moved = true
	})
	got := false
	b.host[2].Spawn("recv", func(th *simtime.Thread) {
		qNew.HostWord().WaitFor(th.Proc(), 1)
		m, _ := qNew.Poll()
		got = string(m.Data) == "follow-me" && moved
	})
	b.k.Run()
	if !got {
		t.Fatalf("message did not follow the migrated VPID (old queue pending=%d)", qOld.Pending())
	}
}

func TestQDMAInOrderPerPair(t *testing.T) {
	b := newBed(t, 2)
	q := b.ctx[1].CreateQueue(1, 128)
	const n = 64
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		for i := 0; i < n; i++ {
			b.ctx[0].IssueQDMA(th, 1, 1, []byte{byte(i)}, nil, nil)
		}
	})
	var got []byte
	b.host[1].Spawn("recv", func(th *simtime.Thread) {
		for len(got) < n {
			q.HostWord().WaitFor(th.Proc(), int64(len(got)+1))
			for {
				m, ok := q.Poll()
				if !ok {
					break
				}
				got = append(got, m.Data[0])
			}
		}
	})
	b.k.Run()
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("position %d: got %d", i, got[i])
		}
	}
}

// rdmaBatchLands runs one RDMA per entry of lens — writes by node 0, or
// reads by node 1 of the same bytes — each inside its own slot-byte slice
// of a shared region, and reports whether every byte of the destination is
// what it should be: the source's where a transfer covers it, zero elsewhere.
func rdmaBatchLands(t *testing.T, lens []int, slot int, read bool) bool {
	region := slot * len(lens)
	b := newBed(t, 2)
	defer b.k.Close()
	src := make([]byte, region)
	dst := make([]byte, region)
	want := make([]byte, region)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	srcAddr := b.ctx[0].Register(src)
	dstAddr := b.ctx[1].Register(dst)
	issuer := 0
	if read {
		issuer = 1
	}
	b.host[issuer].Spawn("issuer", func(th *simtime.Thread) {
		for i, ln := range lens {
			off := i * slot
			copy(want[off:off+ln], src[off:off+ln])
			if read {
				b.ctx[1].IssueRDMARead(th, 0, srcAddr.Add(off), dstAddr.Add(off), ln, nil, func(err error) { t.Error(err) })
			} else {
				b.ctx[0].IssueRDMAWrite(th, 1, srcAddr.Add(off), dstAddr.Add(off), ln, nil, func(err error) { t.Error(err) })
			}
		}
	})
	b.k.Run()
	return bytes.Equal(dst, want)
}

// Property: any batch of RDMA transfers at non-overlapping offsets lands
// exactly and untouched bytes stay zero, in both schemes — first for the
// lengths around a packet boundary, then for random ones.
func TestRDMAWriteProperty(t *testing.T) {
	sizes := streamSizes(model.Default().MTU)
	for _, read := range []bool{false, true} {
		if !rdmaBatchLands(t, sizes, sizes[len(sizes)-1]+3, read) {
			t.Fatalf("read=%v: boundary sizes %v did not land exactly", read, sizes)
		}
		f := func(seeds []uint16) bool {
			if len(seeds) == 0 {
				return true
			}
			if len(seeds) > 16 {
				seeds = seeds[:16]
			}
			// Partition a 64 KB region into equal slots, one per transfer.
			slot := 1 << 16 / len(seeds)
			lens := make([]int, len(seeds))
			for i, s := range seeds {
				lens[i] = int(s) % (slot + 1)
			}
			return rdmaBatchLands(t, lens, slot, read)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("read=%v: %v", read, err)
		}
	}
}

func TestMMU(t *testing.T) {
	m := NewMMU()
	buf := make([]byte, 100)
	a := m.Register(buf)
	s, err := m.Slice(a.Add(10), 20)
	if err != nil {
		t.Fatal(err)
	}
	s[0] = 42
	if buf[10] != 42 {
		t.Fatal("slice does not alias the registered buffer")
	}
	if _, err := m.Slice(a, 101); err == nil {
		t.Fatal("out-of-bounds translation must fault")
	}
	if _, err := m.Slice(NilAddr, 1); err == nil {
		t.Fatal("nil address must fault")
	}
	m.Unregister(a)
	if _, err := m.Slice(a, 1); err == nil {
		t.Fatal("unregistered region must fault")
	}
	if m.Regions() != 0 {
		t.Fatalf("regions = %d, want 0", m.Regions())
	}
}

func TestE4AddrArithmetic(t *testing.T) {
	a := E4Addr(5 << 32)
	if got := a.Add(100).offset(); got != 100 {
		t.Fatalf("offset = %d", got)
	}
	if a.Add(100).region() != 5 {
		t.Fatal("Add changed region")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	_ = E4Addr(5<<32 | 0xffffffff).Add(1)
}

func TestDuplicateContextPanics(t *testing.T) {
	b := newBed(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic opening duplicate context")
		}
	}()
	b.nic[0].OpenContext(0)
}

func TestClosedContextRejectsTraffic(t *testing.T) {
	b := newBed(t, 2)
	b.ctx[1].CreateQueue(1, 4)
	b.ctx[1].Close()
	var gotErr error
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		b.ctx[0].IssueQDMA(th, 1, 1, []byte("x"), nil, func(err error) { gotErr = err })
	})
	b.k.Run()
	if gotErr == nil {
		t.Fatal("QDMA to closed context must fail")
	}
}
