package elan4

import (
	"bytes"
	"fmt"
	"runtime"
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
			m, _ := q.Poll()
			q.Release(m)
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

// depositCycle returns a function that deposits, polls and releases one
// message of n bytes per slot of q, once round the ring.
func depositCycle(tb testing.TB, q *RecvQueue, n int) func() {
	msg := make([]byte, n)
	return func() {
		for i := 0; i < q.Slots(); i++ {
			if !q.deposit(0, msg) {
				tb.Fatal("deposit into a drained ring was rejected")
			}
			m, _ := q.Poll()
			q.Release(m)
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

// TestUnreleasedMessageKeepsItsBytes: Poll hands a message's backing to
// its caller, so a message that is never released keeps its bytes while
// its ring laps it three times.
func TestUnreleasedMessageKeepsItsBytes(t *testing.T) {
	b := newBed(t, 1)
	defer b.k.Close()
	q := b.ctx[0].CreateQueue(1, 8)
	want := bytes.Repeat([]byte{0xa5}, 40)
	q.deposit(0, want)
	held, _ := q.Poll()
	lap := depositCycle(t, q, 40)
	for range 3 {
		lap()
	}
	if !bytes.Equal(held.Data, want) {
		t.Fatalf("a polled message read % x after three laps of its ring, want % x", held.Data[:8], want[:8])
	}
}

// TestRingHoldsItsDeepestOccupancy: a consumer that lets d messages land
// before it polls and releases them leaves its ring holding at most d
// backings, the occupied slots' and the spare ones, however many laps the
// ring makes; every message lands in one of d backings, and a lap
// allocates nothing once the first burst has made them.
func TestRingHoldsItsDeepestOccupancy(t *testing.T) {
	for _, d := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("depth=%d", d), func(t *testing.T) {
			b := newBed(t, 1)
			defer b.k.Close()
			q := b.ctx[0].CreateQueue(1, 8)
			msg := make([]byte, 40)
			backings := map[*byte]bool{}
			burst := func() {
				for range d {
					if !q.deposit(0, msg) {
						t.Fatal("deposit into a drained ring was rejected")
					}
				}
				if held := len(q.spare) + q.Pending(); held > d {
					t.Fatalf("the ring holds %d backings", held)
				}
				for range d {
					m, _ := q.Poll()
					backings[&m.Data[:1][0]] = true
					q.Release(m)
				}
			}
			for range 5 * q.Slots() {
				burst()
			}
			if len(backings) != d || len(q.spare) != d {
				t.Errorf("messages landed in %d backings and %d are spare, want %d", len(backings), len(q.spare), d)
			}
			if n := testing.AllocsPerRun(1, func() {
				for i := 0; i < q.Slots(); i += d {
					burst()
				}
			}); n != 0 {
				t.Errorf("a lap allocated %.0f times, want 0", n)
			}
		})
	}
}

// TestSmallSpareIsReplaced: a released backing too small for the next
// message is dropped and the message gets a new one at the queue's slot
// size, which is spare again once that message is released.
func TestSmallSpareIsReplaced(t *testing.T) {
	b := newBed(t, 1)
	defer b.k.Close()
	q := b.ctx[0].CreateQueue(1, 8)
	q.deposit(0, make([]byte, 40))
	small, _ := q.Poll()
	q.Release(small)

	want := bytes.Repeat([]byte{0x5a}, 1000)
	q.deposit(0, want)
	large, _ := q.Poll()
	if !bytes.Equal(large.Data, want) || cap(large.Data) != 1024 {
		t.Fatalf("a 1000-byte message after a 64-byte spare read %d bytes of a %d-byte backing", len(large.Data), cap(large.Data))
	}
	if &large.Data[0] == &small.Data[:1][0] || len(q.spare) != 0 {
		t.Fatalf("the 64-byte spare backs the 1000-byte message or is still spare (%d spare)", len(q.spare))
	}
	q.Release(large)
	q.deposit(0, make([]byte, 40))
	if next, _ := q.Poll(); cap(next.Data) != 1024 {
		t.Fatalf("the next small message got a %d-byte backing, want the released 1024-byte one", cap(next.Data))
	}
}
