package elan4

import (
	"runtime"
	"slices"
	"testing"

	"qsmpi/internal/simtime"
)

// engineXfers issues n RDMA transfers of size bytes from node 0's memory
// to node 1's — writes by node 0, or reads by node 1 — each waited for,
// and runs the kernel to completion.
func engineXfers(tb testing.TB, b *bed, n, size int, read bool) {
	src, dst := b.ctx[0].Register(make([]byte, size)), b.ctx[1].Register(make([]byte, size))
	issuer := 0
	if read {
		issuer = 1
	}
	ctx := b.ctx[issuer]
	word := simtime.NewCounter()
	done := ctx.NewEvent(1)
	done.SetHostWord(word)
	done.Chain(func() { done.Rearm(1) })
	onErr := func(err error) { tb.Error(err) }
	b.host[issuer].Spawn("issuer", func(th *simtime.Thread) {
		for i := 0; i < n; i++ {
			if read {
				ctx.IssueRDMARead(th, 0, src, dst, size, done, onErr)
			} else {
				ctx.IssueRDMAWrite(th, 1, src, dst, size, done, onErr)
			}
			word.WaitFor(th.Proc(), int64(i+1))
		}
	})
	b.k.Run()
	if word.Value() != int64(n) {
		tb.Fatalf("%d of %d transfers completed", word.Value(), n)
	}
}

// BenchmarkEngineQDMA is one 64-byte QDMA through the engine per op:
// dispatch, kick, startup, wire, deposit, ack.
func BenchmarkEngineQDMA(b *testing.B) {
	bd := newBed(b, 2)
	defer bd.k.Close()
	q := bd.ctx[1].CreateQueue(1, 64)
	payload := make([]byte, 64)
	bd.host[0].Spawn("sender", func(th *simtime.Thread) {
		for i := 0; i < b.N; i++ {
			bd.ctx[0].IssueQDMA(th, 1, 1, payload, nil, nil)
			q.HostWord().WaitFor(th.Proc(), int64(i+1))
			q.Poll()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	bd.k.Run()
}

// BenchmarkEngineRDMA64K is one 64 KB RDMA write per op: 32 chunks
// stepped by the engine's per-chunk timer.
func BenchmarkEngineRDMA64K(b *testing.B) {
	bd := newBed(b, 2)
	defer bd.k.Close()
	b.ReportAllocs()
	b.ResetTimer()
	engineXfers(b, bd, b.N, 64<<10, false)
}

// TestEngineChunkStepAllocatesNothing: a chunk of a one-way stream costs
// no allocation at either end, in either direction. The stream descriptor,
// the final chunk's timer and the ack are per transfer and cancel out of the
// difference; a staging buffer, a boxed payload, a fabric packet or a
// closure per chunk would each show here as a whole allocation.
func TestEngineChunkStepAllocatesNothing(t *testing.T) {
	for _, read := range []bool{false, true} {
		mallocs := func(chunks int) int64 {
			b := newBed(t, 2)
			defer b.k.Close()
			engineXfers(t, b, 4, chunks*b.cfg.MTU, read) // warm the pools, heap and queues
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			engineXfers(t, b, 16, chunks*b.cfg.MTU, read)
			runtime.ReadMemStats(&after)
			return int64(after.Mallocs-before.Mallocs) / 16
		}
		perChunk := float64(mallocs(96)-mallocs(32)) / 64
		t.Logf("read=%v: %.2f allocations per chunk", read, perChunk)
		if perChunk > 0.05 {
			t.Errorf("read=%v: %.2f allocations per chunk, want none", read, perChunk)
		}
	}
}

// depositCycle returns a function that deposits and polls one message of n
// bytes per slot of q, once round the ring.
func depositCycle(tb testing.TB, q *RecvQueue, n int) func() {
	msg := make([]byte, n)
	return func() {
		for i := 0; i < q.Slots(); i++ {
			if !q.deposit(0, msg) {
				tb.Fatal("deposit into a drained ring was rejected")
			}
			q.Poll()
		}
	}
}

// BenchmarkDepositWrap is one deposit and poll per op on a ring that has
// wrapped: the QDMA receive path of every header, ack and completion record.
func BenchmarkDepositWrap(b *testing.B) {
	bd := newBed(b, 1)
	defer bd.k.Close()
	q := bd.ctx[0].CreateQueue(1, 64)
	cycle := depositCycle(b, q, 64)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += q.Slots() {
		cycle()
	}
}

// TestDepositBacksSlotsByNeed: a slot is backed at the power-of-two class of
// the largest deposit its queue has seen, so a ring allocates once per slot
// on its first lap and nothing after; a larger message regrows the one slot
// it lands in, once, and the slots it has not reached yet when they meet it.
func TestDepositBacksSlotsByNeed(t *testing.T) {
	b := newBed(t, 1)
	defer b.k.Close()
	q := b.ctx[0].CreateQueue(1, 8)
	small, large := depositCycle(t, q, 40), depositCycle(t, q, 1000)
	lap := func(cycle func()) float64 { return testing.AllocsPerRun(1, cycle) }
	slotCaps := func() (caps []int) {
		for _, m := range q.slots {
			caps = append(caps, cap(m.Data))
		}
		return caps
	}

	small() // first lap: one backing per slot
	if got := slotCaps(); !slices.Equal(got, slices.Repeat([]int{64}, 8)) {
		t.Fatalf("slots are backed by %v bytes after a lap of 40-byte messages, want 64 each", got)
	}
	if n := lap(small); n != 0 {
		t.Errorf("a lap of a wrapped ring allocated %.0f times, want 0", n)
	}

	q.deposit(0, make([]byte, 1000)) // lands in slot 0 and regrows it
	q.Poll()
	if got := slotCaps(); !slices.Equal(got, []int{1024, 64, 64, 64, 64, 64, 64, 64}) {
		t.Fatalf("slots are backed by %v bytes after one 1000-byte message, want 1024 then 64s", got)
	}
	if n := lap(small); n != 0 {
		t.Errorf("laps of small messages after a regrowth allocated %.0f times, want 0", n)
	}
	if got := slotCaps(); got[0] != 1024 || got[1] != 64 {
		t.Fatalf("small messages changed the backing: %v", got)
	}

	large() // every slot meets a large message once
	if got := slotCaps(); !slices.Equal(got, slices.Repeat([]int{1024}, 8)) {
		t.Fatalf("slots are backed by %v bytes after a lap of 1000-byte messages, want 1024 each", got)
	}
	if n := lap(large) + lap(small); n != 0 {
		t.Errorf("laps after every slot was regrown allocated %.0f times, want 0", n)
	}
}
