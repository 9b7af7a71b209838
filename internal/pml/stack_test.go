package pml

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"qsmpi/internal/datatype"
	"qsmpi/internal/model"
	"qsmpi/internal/ptl"
	"qsmpi/internal/simtime"
)

// rig is a two-or-more process PML test rig over the fake transport.
type rig struct {
	k     *simtime.Kernel
	cfg   model.Config
	net   *fakeNet
	hosts []*simtime.Host
	stack []*Stack
	mods  [][]*fakeModule
}

type railOpt func(*fakeModule)

func writeScheme(m *fakeModule) { m.put = true }
func readScheme(m *fakeModule)  { m.put = false }

// inBand is a transport without RDMA: it ACKs a match and Puts the
// remainder as 4 KB in-band fragments.
func inBand(m *fakeModule) { m.put, m.maxFrag = true, 4096 }

func newRig(t testing.TB, n int, mode ProgressMode, railsPerRank int, opts ...railOpt) *rig {
	t.Helper()
	cfg := model.Default()
	k := simtime.NewKernel()
	r := &rig{k: k, cfg: cfg, net: newFakeNet(k, simtime.Micros(1.0))}
	for i := 0; i < n; i++ {
		h := simtime.NewHost(k, fmt.Sprintf("n%d", i), cfg.HostCPUs)
		st := NewStack(k, h, cfg, i, false, mode)
		var rails []*fakeModule
		for rr := 0; rr < railsPerRank; rr++ {
			m := newFakeModule(r.net, fmt.Sprintf("rail%d", rr), i, st)
			for _, o := range opts {
				o(m)
			}
			st.AddModule(m)
			rails = append(rails, m)
		}
		r.hosts = append(r.hosts, h)
		r.stack = append(r.stack, st)
		r.mods = append(r.mods, rails)
	}
	return r
}

// connect wires every pair of ranks through all rails, one batch a rank.
func (r *rig) connect(th *simtime.Thread, rank int) {
	var peers []ptl.Peer
	for other := range r.stack {
		if other != rank {
			peers = append(peers, ptl.Peer{Rank: other, Name: fmt.Sprintf("r%d", other)})
		}
	}
	if err := r.stack[rank].AddPeers(th, peers); err != nil {
		panic(err)
	}
}

// run spawns fn as the main thread of each rank and runs to completion.
func (r *rig) run(t testing.TB, fn func(rank int, th *simtime.Thread)) {
	t.Helper()
	for i := range r.stack {
		i := i
		r.hosts[i].Spawn("main", func(th *simtime.Thread) {
			r.connect(th, i)
			fn(i, th)
		})
	}
	r.k.Run()
	if st := r.k.Stalled(); len(st) != 0 {
		t.Fatalf("deadlock; stalled: %v", st)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

func TestEagerPingPong(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	const n = 1024
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(n)
		if rank == 0 {
			buf := pattern(n, 1)
			r.stack[0].Send(th, 1, 7, 0, buf, dt).Wait(th)
			back := make([]byte, n)
			req := r.stack[0].Recv(th, 1, 8, 0, back, dt)
			req.Wait(th)
			if !bytes.Equal(back, pattern(n, 2)) {
				t.Error("reply corrupted")
			}
			if st := req.Status(); st.Source != 1 || st.Tag != 8 || st.Len != n {
				t.Errorf("status = %+v", st)
			}
		} else {
			buf := make([]byte, n)
			r.stack[1].Recv(th, 0, 7, 0, buf, dt).Wait(th)
			if !bytes.Equal(buf, pattern(n, 1)) {
				t.Error("message corrupted")
			}
			r.stack[1].Send(th, 0, 8, 0, pattern(n, 2), dt).Wait(th)
		}
	})
	if r.stack[0].Stats().EagerSends != 1 {
		t.Fatalf("eager sends = %d", r.stack[0].Stats().EagerSends)
	}
}

func TestZeroByteMessage(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(0)
		if rank == 0 {
			r.stack[0].Send(th, 1, 1, 0, nil, dt).Wait(th)
		} else {
			req := r.stack[1].Recv(th, 0, 1, 0, nil, dt)
			req.Wait(th)
			if req.Status().Len != 0 {
				t.Errorf("len = %d", req.Status().Len)
			}
		}
	})
}

func rendezvousRoundTrip(t *testing.T, scheme railOpt, n int) {
	r := newRig(t, 2, Polling, 1, scheme)
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(n)
		if rank == 0 {
			r.stack[0].Send(th, 1, 3, 0, pattern(n, 9), dt).Wait(th)
		} else {
			buf := make([]byte, n)
			req := r.stack[1].Recv(th, 0, 3, 0, buf, dt)
			req.Wait(th)
			if !bytes.Equal(buf, pattern(n, 9)) {
				t.Error("rendezvous data corrupted")
			}
		}
	})
	if r.stack[0].Stats().RndvSends != 1 {
		t.Fatalf("rndv sends = %d", r.stack[0].Stats().RndvSends)
	}
}

func TestRendezvousWriteScheme(t *testing.T) { rendezvousRoundTrip(t, writeScheme, 100*1000) }
func TestRendezvousReadScheme(t *testing.T)  { rendezvousRoundTrip(t, readScheme, 100*1000) }

func TestRendezvousNoInline(t *testing.T) {
	r := newRig(t, 2, Polling, 1, func(m *fakeModule) { m.inline = false })
	const n = 50000
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(n)
		if rank == 0 {
			r.stack[0].Send(th, 1, 3, 0, pattern(n, 5), dt).Wait(th)
		} else {
			buf := make([]byte, n)
			r.stack[1].Recv(th, 0, 3, 0, buf, dt).Wait(th)
			if !bytes.Equal(buf, pattern(n, 5)) {
				t.Error("no-inline rendezvous corrupted")
			}
		}
	})
}

func TestNonContiguousDatatypes(t *testing.T) {
	// Vector send buffer, vector receive buffer with a different shape.
	r := newRig(t, 2, Polling, 1)
	sdt := datatype.Vector(100, 16, 32, datatype.Contiguous(1)) // 1600 data bytes
	rdt := datatype.Vector(50, 32, 64, datatype.Contiguous(1))  // 1600 data bytes
	// DTP engine must be on for non-contiguous data.
	r.stack[0] = NewStack(r.k, r.hosts[0], r.cfg, 0, true, Polling)
	r.stack[1] = NewStack(r.k, r.hosts[1], r.cfg, 1, true, Polling)
	r.net.mods = map[int][]*fakeModule{}
	r.mods[0] = []*fakeModule{newFakeModule(r.net, "rail0", 0, r.stack[0])}
	r.mods[1] = []*fakeModule{newFakeModule(r.net, "rail0", 1, r.stack[1])}
	r.stack[0].AddModule(r.mods[0][0])
	r.stack[1].AddModule(r.mods[1][0])

	src := pattern(sdt.Extent(), 3)
	dst := make([]byte, rdt.Extent())
	r.run(t, func(rank int, th *simtime.Thread) {
		if rank == 0 {
			r.stack[0].Send(th, 1, 1, 0, src, sdt).Wait(th)
		} else {
			r.stack[1].Recv(th, 0, 1, 0, dst, rdt).Wait(th)
		}
	})
	want := make([]byte, 1600)
	sdt.Pack(want, src)
	got := make([]byte, 1600)
	rdt.Pack(got, dst)
	if !bytes.Equal(got, want) {
		t.Fatal("typed data did not survive the send/recv layout change")
	}
}

func TestUnexpectedMessages(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	const n = 256
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(n)
		if rank == 0 {
			for i := 0; i < 3; i++ {
				r.stack[0].Send(th, 1, i, 0, pattern(n, byte(i)), dt).Wait(th)
			}
		} else {
			// Let all three arrive unexpected.
			th.Proc().Sleep(50 * simtime.Microsecond)
			r.stack[1].Progress(th)
			// Post in reverse tag order; each must match its tag.
			for i := 2; i >= 0; i-- {
				buf := make([]byte, n)
				r.stack[1].Recv(th, 0, i, 0, buf, dt).Wait(th)
				if !bytes.Equal(buf, pattern(n, byte(i))) {
					t.Errorf("tag %d data wrong", i)
				}
			}
		}
	})
	if r.stack[1].Stats().UnexpectedMsgs != 3 {
		t.Fatalf("unexpected = %d, want 3", r.stack[1].Stats().UnexpectedMsgs)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	r := newRig(t, 3, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(8)
		switch rank {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, 8)
				req := r.stack[0].Recv(th, AnySource, AnyTag, 0, buf, dt)
				req.Wait(th)
				got[req.Status().Source] = true
				if req.Status().Tag != 40+req.Status().Source {
					t.Errorf("tag = %d from %d", req.Status().Tag, req.Status().Source)
				}
			}
			if !got[1] || !got[2] {
				t.Errorf("sources seen: %v", got)
			}
		default:
			th.Proc().Sleep(simtime.Duration(rank) * simtime.Microsecond)
			r.stack[rank].Send(th, 0, 40+rank, 0, pattern(8, byte(rank)), dt).Wait(th)
		}
	})
}

func TestCommSeparation(t *testing.T) {
	// Same source, same tag, two communicators: receives must match only
	// their communicator.
	r := newRig(t, 2, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(16)
		if rank == 0 {
			r.stack[0].Send(th, 1, 5, 2, pattern(16, 2), dt).Wait(th)
			r.stack[0].Send(th, 1, 5, 1, pattern(16, 1), dt).Wait(th)
		} else {
			b1 := make([]byte, 16)
			r.stack[1].Recv(th, 0, 5, 1, b1, dt).Wait(th)
			if !bytes.Equal(b1, pattern(16, 1)) {
				t.Error("comm 1 got comm 2's message")
			}
			b2 := make([]byte, 16)
			r.stack[1].Recv(th, 0, 5, 2, b2, dt).Wait(th)
			if !bytes.Equal(b2, pattern(16, 2)) {
				t.Error("comm 2 data wrong")
			}
		}
	})
}

func TestOrderingWithSameTag(t *testing.T) {
	// Two same-tag messages must match posted receives in send order.
	r := newRig(t, 2, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(64)
		if rank == 0 {
			r.stack[0].Send(th, 1, 9, 0, pattern(64, 10), dt)
			r.stack[0].Send(th, 1, 9, 0, pattern(64, 20), dt)
			// Drive both to completion.
			for r.stack[0].PendingSends() > 0 {
				r.stack[0].Progress(th)
				th.Proc().Sleep(simtime.Microsecond)
			}
		} else {
			a := make([]byte, 64)
			b := make([]byte, 64)
			ra := r.stack[1].Recv(th, 0, 9, 0, a, dt)
			rb := r.stack[1].Recv(th, 0, 9, 0, b, dt)
			ra.Wait(th)
			rb.Wait(th)
			if !bytes.Equal(a, pattern(64, 10)) || !bytes.Equal(b, pattern(64, 20)) {
				t.Error("same-tag messages matched out of order")
			}
		}
	})
}

func TestReorderBufferRestoresSequence(t *testing.T) {
	// Deliver seq 1 before seq 0 by injecting directly into the module
	// inbox; the PML must park seq 1 until seq 0 arrives.
	cfg := model.Default()
	k := simtime.NewKernel()
	h := simtime.NewHost(k, "n0", 2)
	st := NewStack(k, h, cfg, 0, false, Polling)
	net := newFakeNet(k, 0)
	mod := newFakeModule(net, "rail0", 0, st)
	st.AddModule(mod)

	mk := func(seq uint32, seed byte) fakeMsg {
		data := pattern(32, seed)
		return fakeMsg{kind: fkFirst, from: 1, data: data, hdr: ptl.Header{
			Type: ptl.TypeMatch, CommID: 0, SrcRank: 1, DstRank: 0, Tag: 4,
			SeqNum: seq, FragLen: 32, MsgLen: 32, SendReq: uint64(100 + seq),
		}}
	}
	a := make([]byte, 32)
	b := make([]byte, 32)
	h.Spawn("main", func(th *simtime.Thread) {
		ra := st.Recv(th, 1, 4, 0, a, datatype.Contiguous(32))
		rb := st.Recv(th, 1, 4, 0, b, datatype.Contiguous(32))
		mod.inbox = append(mod.inbox, mk(1, 22)) // arrives first, out of order
		mod.inbox = append(mod.inbox, mk(0, 11))
		st.Progress(th)
		if !ra.Done() || !rb.Done() {
			t.Error("receives incomplete after progress")
		}
	})
	k.Run()
	if !bytes.Equal(a, pattern(32, 11)) || !bytes.Equal(b, pattern(32, 22)) {
		t.Fatal("reordered messages matched in arrival order, not send order")
	}
	if st.Stats().ReorderedMsgs != 1 {
		t.Fatalf("reordered = %d, want 1", st.Stats().ReorderedMsgs)
	}
}

func TestMultiRailStriping(t *testing.T) {
	// Two rails, weights 3:1 — the rendezvous remainder must split ~3:1.
	r := newRig(t, 2, Polling, 2)
	for rank := range r.mods {
		r.mods[rank][0].weight = 3
		r.mods[rank][1].weight = 1
	}
	const n = 1<<20 + 1
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(n)
		if rank == 0 {
			r.stack[0].Send(th, 1, 1, 0, pattern(n, 7), dt).Wait(th)
		} else {
			buf := make([]byte, n)
			r.stack[1].Recv(th, 0, 1, 0, buf, dt).Wait(th)
			if !bytes.Equal(buf, pattern(n, 7)) {
				t.Error("striped message corrupted")
			}
		}
	})
	p0 := r.mods[0][0].PutBytes
	p1 := r.mods[0][1].PutBytes
	if p0 == 0 || p1 == 0 {
		t.Fatalf("striping did not use both rails: %d/%d", p0, p1)
	}
	ratio := float64(p0) / float64(p1)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("stripe ratio %.2f, want ≈3", ratio)
	}
}

// TestInBandFragmentRemainder: a module without RDMA carries the whole
// remainder after the inlined bytes as FRAGs of at most its fragment size.
func TestInBandFragmentRemainder(t *testing.T) {
	r := newRig(t, 2, Polling, 1, inBand)
	const n = 20000
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(n)
		if rank == 0 {
			r.stack[0].Send(th, 1, 1, 0, pattern(n, 4), dt).Wait(th)
		} else {
			buf := make([]byte, n)
			r.stack[1].Recv(th, 0, 1, 0, buf, dt).Wait(th)
			if !bytes.Equal(buf, pattern(n, 4)) {
				t.Error("data corrupted")
			}
		}
	})
	m := r.mods[0][0]
	if rest := n - m.eagerLimit; m.FragBytes != rest || m.PutBytes != 0 {
		t.Errorf("FragBytes %d, PutBytes %d: want the remainder %d in-band", m.FragBytes, m.PutBytes, rest)
	}
	if m.Frags != 5 {
		t.Errorf("%d fragments, want 5 of at most 4096 bytes", m.Frags)
	}
}

// TestStripeAcrossPutAndInBand: one remainder striped 3:1 across an RDMA
// module and an in-band one; each moves exactly its share, the last the
// rest (a quarter of the remainder, rounded down, would lose a byte), and
// the message arrives whole.
func TestStripeAcrossPutAndInBand(t *testing.T) {
	r := newRig(t, 2, Polling, 2)
	for rank := range r.mods {
		r.mods[rank][0].weight = 3
		inBand(r.mods[rank][1])
		r.mods[rank][1].weight = 1
	}
	const n = 1<<20 + 1
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(n)
		if rank == 0 {
			r.stack[0].Send(th, 1, 1, 0, pattern(n, 9), dt).Wait(th)
		} else {
			buf := make([]byte, n)
			r.stack[1].Recv(th, 0, 1, 0, buf, dt).Wait(th)
			if !bytes.Equal(buf, pattern(n, 9)) {
				t.Error("striped message corrupted")
			}
		}
	})
	rdma, sock := r.mods[0][0], r.mods[0][1]
	rest := n - rdma.eagerLimit
	want := int(float64(rest) * 3 / 4)
	if rdma.PutBytes != want || rdma.FragBytes != 0 || sock.FragBytes != rest-want || sock.PutBytes != 0 {
		t.Errorf("RDMA module put %d (frags %d), in-band module sent %d (puts %d); want %d and %d",
			rdma.PutBytes, rdma.FragBytes, sock.FragBytes, sock.PutBytes, want, rest-want)
	}
}

func TestProbe(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(128)
		if rank == 0 {
			th.Proc().Sleep(20 * simtime.Microsecond)
			r.stack[0].Send(th, 1, 77, 0, pattern(128, 1), dt).Wait(th)
		} else {
			if _, ok := r.stack[1].Iprobe(th, 0, 77, 0); ok {
				t.Error("Iprobe found a message before any was sent")
			}
			st := r.stack[1].Probe(th, 0, 77, 0)
			if st.Len != 128 || st.Tag != 77 || st.Source != 0 {
				t.Errorf("probe status = %+v", st)
			}
			// The message is still there for the actual receive.
			buf := make([]byte, 128)
			r.stack[1].Recv(th, 0, 77, 0, buf, dt).Wait(th)
			if !bytes.Equal(buf, pattern(128, 1)) {
				t.Error("probed message corrupted")
			}
		}
	})
}

func TestTruncationPanics(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	panicked := false
	r.run(t, func(rank int, th *simtime.Thread) {
		if rank == 0 {
			r.stack[0].Send(th, 1, 1, 0, pattern(256, 1), datatype.Contiguous(256))
			// Sender may not complete: the receiver dies. Just progress a bit.
			th.Proc().Sleep(100 * simtime.Microsecond)
			r.stack[0].Progress(th)
		} else {
			defer func() { panicked = recover() != nil }()
			buf := make([]byte, 64)
			r.stack[1].Recv(th, 0, 1, 0, buf, datatype.Contiguous(64)).Wait(th)
		}
	})
	if !panicked {
		t.Fatal("truncating receive did not panic")
	}
}

func TestManyMessagesRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		r := newRig(t, 2, Polling, 1)
		const msgs = 40
		sizes := make([]int, msgs)
		for i := range sizes {
			switch rng.Intn(3) {
			case 0:
				sizes[i] = rng.Intn(1984)
			case 1:
				sizes[i] = 1984 + rng.Intn(8192)
			default:
				sizes[i] = 65536 + rng.Intn(65536)
			}
		}
		bufs := make([][]byte, msgs)
		r.run(t, func(rank int, th *simtime.Thread) {
			if rank == 0 {
				var reqs []*SendReq
				for i, n := range sizes {
					reqs = append(reqs, r.stack[0].Send(th, 1, i, 0, pattern(n, byte(i)), datatype.Contiguous(n)))
				}
				for _, q := range reqs {
					q.Wait(th)
				}
			} else {
				var reqs []*RecvReq
				for i, n := range sizes {
					bufs[i] = make([]byte, n)
					reqs = append(reqs, r.stack[1].Recv(th, 0, i, 0, bufs[i], datatype.Contiguous(n)))
				}
				for _, q := range reqs {
					q.Wait(th)
				}
			}
		})
		for i, n := range sizes {
			if !bytes.Equal(bufs[i], pattern(n, byte(i))) {
				t.Fatalf("trial %d: message %d (size %d) corrupted", trial, i, n)
			}
		}
	}
}

func TestPendingAndFinalize(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		dt := datatype.Contiguous(64)
		if rank == 0 {
			r.stack[0].Send(th, 1, 1, 0, pattern(64, 1), dt)
			if r.stack[0].PendingSends() != 1 {
				t.Error("pending send not counted")
			}
			r.stack[0].Finalize(th) // must drain before returning
			if r.stack[0].PendingSends() != 0 {
				t.Error("finalize left pending sends")
			}
		} else {
			buf := make([]byte, 64)
			r.stack[1].Recv(th, 0, 1, 0, buf, dt).Wait(th)
		}
	})
}

func TestDelPeerStopsReachability(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	panicked := false
	r.run(t, func(rank int, th *simtime.Thread) {
		if rank != 0 {
			return
		}
		r.stack[0].DelPeer(th, 1)
		defer func() { panicked = recover() != nil }()
		r.stack[0].Send(th, 1, 1, 0, pattern(8, 1), datatype.Contiguous(8))
	})
	if !panicked {
		t.Fatal("send to removed peer did not panic")
	}
}

// TestRequestSizes holds the caller's handles to what they carry — state
// pointer, ID, done flag, and a receive's Status — and the recycled state
// behind them to their allocation size classes: a recvState in 240 bytes, a
// sendState with the send descriptor the modules see inside it in 288.
func TestRequestSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"SendReq", unsafe.Sizeof(SendReq{}), 24},
		{"RecvReq", unsafe.Sizeof(RecvReq{}), 48},
		{"sendState", unsafe.Sizeof(sendState{}), 288},
		{"recvState", unsafe.Sizeof(recvState{}), 240},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.got, c.want)
		}
	}
}
