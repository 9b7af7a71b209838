package elan4

import (
	"runtime"
	"testing"

	"qsmpi/internal/simtime"
)

// engineWrites issues n RDMA writes of size bytes from node 0 to node 1,
// each waited for, and runs the kernel to completion.
func engineWrites(tb testing.TB, b *bed, n, size int) {
	src, dst := b.ctx[0].Register(make([]byte, size)), b.ctx[1].Register(make([]byte, size))
	word := simtime.NewCounter()
	done := b.ctx[0].NewEvent(1)
	done.SetHostWord(word)
	done.Chain(func() { done.Rearm(1) })
	b.host[0].Spawn("writer", func(th *simtime.Thread) {
		for i := 0; i < n; i++ {
			b.ctx[0].IssueRDMAWrite(th, 1, src, dst, size, done, func(err error) { tb.Error(err) })
			word.WaitFor(th.Proc(), int64(i+1))
		}
	})
	b.k.Run()
	if word.Value() != int64(n) {
		tb.Fatalf("%d of %d writes completed", word.Value(), n)
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
	engineWrites(b, bd, b.N, 64<<10)
}

// TestEngineChunkStepAllocatesNothing: what a one-way transfer allocates
// per chunk is the chunk buffer (placed chunks migrate to the receiving
// NIC's pool, so the sender's never hits), its wire payload struct, the
// fabric packet carrying it, the fabric's own per-hop copy and the
// receiving NIC's placement callback. The engine's own step — cursor
// advance and timer push through a method value bound once — adds nothing
// to those five; a closure per chunk would show here as a sixth.
func TestEngineChunkStepAllocatesNothing(t *testing.T) {
	mallocs := func(chunks int) uint64 {
		b := newBed(t, 2)
		defer b.k.Close()
		engineWrites(t, b, 4, chunks*b.cfg.MTU) // warm the pools, heap and queues
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		engineWrites(t, b, 16, chunks*b.cfg.MTU)
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / 16
	}
	perChunk := float64(mallocs(96)-mallocs(32)) / 64
	t.Logf("%.2f allocations per chunk", perChunk)
	if perChunk > 5.05 {
		t.Errorf("%.2f allocations per chunk, want the 5 of the wire and receive path", perChunk)
	}
}
