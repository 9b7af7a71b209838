package elan4

import (
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
