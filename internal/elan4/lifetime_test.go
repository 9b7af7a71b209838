package elan4

import (
	"testing"

	"qsmpi/internal/simtime"
)

// TestDescriptorsReturned: every descriptor a NIC takes from its free list
// reaches retire exactly once, whichever way it ends — so at quiescence the
// list has had as many puts as gets (fewer: a descriptor leaked, and with it
// its payload; more: one was retired twice and two operations now share it),
// and onError ran as often as the scenario says.
func TestDescriptorsReturned(t *testing.T) {
	cases := []struct {
		name string
		errs int // onError calls expected
		run  func(b *bed, th *simtime.Thread, fail func(error))
	}{
		{"qdma", 0, func(b *bed, th *simtime.Thread, fail func(error)) {
			b.ctx[1].CreateQueue(1, 4)
			b.ctx[0].IssueQDMA(th, 1, 1, []byte("x"), b.ctx[0].NewEvent(1), fail)
		}},
		{"nack-and-retry-into-a-full-queue", 0, func(b *bed, th *simtime.Thread, fail func(error)) {
			q := b.ctx[1].CreateQueue(1, 2)
			for i := 0; i < 6; i++ {
				b.ctx[0].IssueQDMA(th, 1, 1, []byte{byte(i)}, nil, fail)
			}
			for got := 0; got < 6; {
				th.Proc().Sleep(50 * simtime.Microsecond)
				for _, ok := q.Poll(); ok; _, ok = q.Poll() {
					got++
				}
			}
			if b.nic[0].Stats().Retries == 0 {
				t.Error("no QDMA was retried")
			}
		}},
		{"retry-exhaustion", 1, func(b *bed, th *simtime.Thread, fail func(error)) {
			b.ctx[1].CreateQueue(1, 1) // filled by the first, never drained
			b.ctx[0].IssueQDMA(th, 1, 1, []byte("a"), nil, fail)
			b.ctx[0].IssueQDMA(th, 1, 1, []byte("b"), nil, fail)
		}},
		{"qdma-to-closed-context", 1, func(b *bed, th *simtime.Thread, fail func(error)) {
			b.ctx[1].CreateQueue(1, 4)
			b.ctx[1].Close()
			b.ctx[0].IssueQDMA(th, 1, 1, []byte("x"), nil, fail)
		}},
		{"qdma-to-unknown-vpid", 1, func(b *bed, th *simtime.Thread, fail func(error)) {
			b.ctx[0].IssueQDMA(th, 42, 1, []byte("x"), nil, fail)
		}},
		{"chained-qdma", 0, func(b *bed, th *simtime.Thread, fail func(error)) {
			b.ctx[1].CreateQueue(1, 4)
			n := 3 * b.cfg.MTU
			src, dst := b.ctx[0].Register(make([]byte, n)), b.ctx[1].Register(make([]byte, n))
			ev := b.ctx[0].NewEvent(1)
			ev.Chain(func() { b.ctx[0].QDMAFromNIC(1, 1, []byte("FIN"), nil, fail) })
			b.ctx[0].IssueRDMAWrite(th, 1, src, dst, n, ev, fail)
		}},
		{"rdma-write-to-closed-context", 3, func(b *bed, th *simtime.Thread, fail func(error)) {
			// Every chunk is refused; only the last refusal is terminal.
			n := 3 * b.cfg.MTU
			src, dst := b.ctx[0].Register(make([]byte, n)), b.ctx[1].Register(make([]byte, n))
			b.ctx[1].Close()
			b.ctx[0].IssueRDMAWrite(th, 1, src, dst, n, nil, fail)
		}},
		{"rdma-write-unknown-vpid-and-unmapped-source", 2, func(b *bed, th *simtime.Thread, fail func(error)) {
			src := b.ctx[0].Register(make([]byte, 64))
			b.ctx[0].IssueRDMAWrite(th, 42, src, src, 64, nil, fail)
			b.ctx[0].IssueRDMAWrite(th, 1, E4Addr(7<<32), src, 64, nil, fail)
		}},
		{"rdma-read", 0, func(b *bed, th *simtime.Thread, fail func(error)) {
			n := 2*b.cfg.MTU + 9
			remote, local := b.ctx[1].Register(make([]byte, n)), b.ctx[0].Register(make([]byte, n))
			b.ctx[0].IssueRDMARead(th, 1, remote, local, n, b.ctx[0].NewEvent(1), fail)
		}},
		{"rdma-read-from-closed-context", 1, func(b *bed, th *simtime.Thread, fail func(error)) {
			remote, local := b.ctx[1].Register(make([]byte, 64)), b.ctx[0].Register(make([]byte, 64))
			b.ctx[1].Close()
			b.ctx[0].IssueRDMARead(th, 1, remote, local, 64, nil, fail)
		}},
		{"rdma-read-unknown-vpid-and-unmapped-landing", 3, func(b *bed, th *simtime.Thread, fail func(error)) {
			n := 2 * b.cfg.MTU
			remote, local := b.ctx[1].Register(make([]byte, n)), b.ctx[0].Register(make([]byte, n))
			b.ctx[0].IssueRDMARead(th, 42, remote, local, n, nil, fail)
			b.ctx[0].IssueRDMARead(th, 1, remote, E4Addr(7<<32), n, nil, fail) // both chunks
		}},
		{"broadcast-with-one-unresolved-destination", 1, func(b *bed, th *simtime.Thread, fail func(error)) {
			b.ctx[1].CreateQueue(1, 4)
			b.ctx[2].CreateQueue(1, 4)
			b.ctx[0].IssueQDMABcast(th, []int{1, 99, 2}, 1, []byte("x"), nil, fail)
		}},
		{"broadcast-with-no-resolved-destination", 1, func(b *bed, th *simtime.Thread, fail func(error)) {
			b.ctx[0].IssueQDMABcast(th, []int{98, 99}, 1, []byte("x"), nil, fail)
		}},
		{"broadcast-refused-by-two-of-three", 2, func(b *bed, th *simtime.Thread, fail func(error)) {
			// Error acks count down like good ones: the descriptor outlives
			// the first and is retired on the last.
			b.ctx[2].CreateQueue(1, 4)
			b.ctx[1].Close()
			b.ctx[0].IssueQDMABcast(th, []int{1, 2, 3}, 1, []byte("x"), nil, fail)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBed(t, 4)
			errs := 0
			b.host[0].Spawn("script", func(th *simtime.Thread) {
				tc.run(b, th, func(error) { errs++ })
			})
			b.k.Run()
			if errs != tc.errs {
				t.Errorf("onError ran %d times, want %d", errs, tc.errs)
			}
			var taken int64
			for i, nic := range b.nic {
				d := nic.Stats().Descriptors
				taken += d.Gets
				if d.Gets != d.Puts {
					t.Errorf("NIC %d took %d descriptors and got %d back", i, d.Gets, d.Puts)
				}
				if p := nic.PoolStats(); p.Gets != p.Puts {
					t.Errorf("NIC %d took %d payload copies and got %d back", i, p.Gets, p.Puts)
				}
			}
			if taken == 0 {
				t.Error("the scenario took no descriptor")
			}
		})
	}
}

// TestDescriptorsReturnedSharded recycles one descriptor through many
// operations between nodes on different shards: the source NIC's shard
// rewrites the packet, stream and ack the destination's read and answered
// the operation before. Under the race detector this is the proof that the
// epoch barrier orders every hand-off of a recycled object.
func TestDescriptorsReturnedSharded(t *testing.T) {
	const rounds = 40
	for _, shards := range []int{1, 2, 4} {
		b := newEngineBed(shards)
		q := b.ctx[3].CreateQueue(1, 4)
		n := b.cfg.MTU + 100
		local, remote := b.ctx[0].Register(make([]byte, n)), b.ctx[3].Register(make([]byte, n))
		b.host[0].Spawn("issuer", func(th *simtime.Thread) {
			for i := 0; i < rounds; i++ {
				ev, w := b.ctx[0].NewEvent(3), simtime.NewCounter()
				ev.SetHostWord(w)
				b.ctx[0].IssueQDMA(th, 3, 1, []byte{byte(i)}, ev, engineFail(t))
				b.ctx[0].IssueRDMAWrite(th, 3, local, remote, n, ev, engineFail(t))
				b.ctx[0].IssueRDMARead(th, 3, remote, local, n, ev, engineFail(t))
				w.WaitFor(th.Proc(), 1)
			}
		})
		b.host[3].Spawn("drain", func(th *simtime.Thread) {
			for i := 0; i < rounds; i++ {
				q.HostWord().WaitFor(th.Proc(), int64(i+1))
				q.Poll()
			}
		})
		b.k.EnableParallel()
		b.k.Run()
		b.k.Close()
		for i, nic := range b.nic {
			d := nic.Stats().Descriptors
			if d.Gets != d.Puts || (i == 0 && d.Gets != 3*rounds) || (i == 3 && d.Gets != rounds) {
				t.Errorf("shards=%d: NIC %d took %d descriptors and got %d back", shards, i, d.Gets, d.Puts)
			}
		}
	}
}
