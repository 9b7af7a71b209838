package tport

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/model"
	"qsmpi/internal/ptl"
	"qsmpi/internal/simtime"
	"qsmpi/internal/simtime/rectest"
	"qsmpi/internal/trace"
)

// TestHeaderIsHalfOpenMPIs: MPICH-QsNetII's header is half of Open MPI's
// (§6.5).
func TestHeaderIsHalfOpenMPIs(t *testing.T) {
	if headerBytes*2 != ptl.HeaderSize {
		t.Errorf("header sizes: tport %d, ompi %d", headerBytes, ptl.HeaderSize)
	}
}

// A pull used to cost, per 2016-byte chunk, a staging copy, a boxed dataPkt,
// two closures and a placement timer. It is now one pullStream both NICs
// walk with a cursor each, copying the sender's buffer to the receiver's
// once, and a non-final chunk is placed inside its fabric delivery with no
// timer. testdata/pull_golden.txt was recorded from the per-chunk code
// (commit f31155f) before it was deleted: for the script below every
// SendHandle and RecvHandle completion time with its byte count, the end
// time and the time of every executed event, plus — "placed" — the instants
// of the tport:data timers of non-final chunks, which are the only events
// the rework may delete. It must never be regenerated.

// pullNodes is the bed size of the script: traffic runs from nodes 0 and 1
// to nodes 2 and 3, which sit on other shards at 2 and at 4 workers.
const pullNodes = 4

// pullBed is a static Tport job whose nodes are simulation entities 1..n,
// optionally partitioned over a sharded kernel, with one trace recorder per
// endpoint.
type pullBed struct {
	k    *simtime.Kernel
	host []*simtime.Host
	ep   []*Endpoint
	recs []*trace.Recorder
}

type noResolver struct{}

func (noResolver) Resolve(int) (int, int, bool) { return 0, 0, false }

func newPullBed(shards int) *pullBed {
	cfg := model.Default()
	k := simtime.NewKernel()
	if shards > 1 {
		k.Shard(simtime.ShardPlan{
			Workers:   shards,
			Owner:     func(e simtime.Entity) int { return (int(e)-1)*shards/pullNodes + 1 },
			Lookahead: cfg.WireLatency,
		})
	}
	net := fabric.New(k, fabric.Params{
		LinkBandwidth:  cfg.LinkBandwidth,
		WireLatency:    cfg.WireLatency,
		SwitchLatency:  cfg.SwitchLatency,
		MTU:            cfg.MTU,
		PacketOverhead: cfg.PacketOverhead,
		Arity:          cfg.FatTreeRadix,
	}, pullNodes)
	b := &pullBed{k: k}
	ports := make([]int, pullNodes)
	for i := range ports {
		ports[i] = i
	}
	for i := 0; i < pullNodes; i++ {
		h := simtime.NewHostSched(k.SchedFor(simtime.Entity(i+1)), fmt.Sprintf("n%d", i), cfg.HostCPUs)
		nic := elan4.NewNIC(k, h, net, i, cfg, noResolver{})
		net.BindPort(i, h.Sched(), nil)
		ep := New(k, h, nic, cfg, i, ports)
		rec := trace.NewRecorder(0)
		ep.SetTracer(rec)
		b.host = append(b.host, h)
		b.ep = append(b.ep, ep)
		b.recs = append(b.recs, rec)
	}
	return b
}

// run executes the script to quiescence in the parallel phase.
func (b *pullBed) run() {
	b.k.EnableParallel()
	b.k.Run()
}

// pullPattern fills a fresh buffer with a seed-dependent pattern that has no
// period dividing the chunk size.
func pullPattern(n int, seed byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i*31+i/251) ^ seed
	}
	return buf
}

// pullXfer is one message of a scenario, so that its data can be checked
// once the kernel has run.
type pullXfer struct {
	what     string
	src, dst []byte
}

// xfer scripts one message of n bytes from node `from` to node `to`: the
// sender starts after sendAt, the receiver posts after postAt.
func (b *pullBed) xfer(from, to, tag, n int, sendAt, postAt simtime.Duration) pullXfer {
	x := pullXfer{what: fmt.Sprintf("%d bytes %d->%d", n, from, to), src: pullPattern(n, byte(tag)), dst: make([]byte, n)}
	b.host[from].Spawn("s", func(th *simtime.Thread) {
		th.Proc().Sleep(sendAt)
		b.ep[from].Send(th, to, tag, x.src)
	})
	b.host[to].Spawn("r", func(th *simtime.Thread) {
		th.Proc().Sleep(postAt)
		b.ep[to].Recv(th, from, tag, x.dst)
	})
	return x
}

type pullScenario struct {
	name string
	run  func(b *pullBed) []pullXfer
}

// pullSizes are the lengths of the per-size scenarios: one byte either side
// of the eager limit and of the first three chunk boundaries (the chunk and
// the eager limit are both MTU − 32, so the first two are eager messages),
// then 64 KB and 1 MB.
func pullSizes(chunk int) []int {
	var ns []int
	for k := 1; k <= 3; k++ {
		ns = append(ns, k*chunk-1, k*chunk, k*chunk+1)
	}
	return append(ns, 64<<10, 1<<20)
}

func pullScenarios() []pullScenario {
	var scs []pullScenario
	chunk := model.Default().MTU - headerBytes
	for _, n := range pullSizes(chunk) {
		scs = append(scs, pullScenario{fmt.Sprintf("len-%d", n), func(b *pullBed) []pullXfer {
			return []pullXfer{b.xfer(0, 3, 1, n, 0, 0)}
		}})
	}
	return append(scs,
		// Two pulls whose chunks interleave on one receive PCI bus: each has
		// its own cursor.
		pullScenario{"converge", func(b *pullBed) []pullXfer {
			return []pullXfer{
				b.xfer(0, 3, 1, 5*chunk+7, 0, 0),
				b.xfer(1, 3, 2, 6*chunk-7, 0, 0),
			}
		}},
		// One NIC serves two pulls at once: the thread processor interleaves
		// their PCI reads, so each stream has its own send cursor and step.
		pullScenario{"fan-out", func(b *pullBed) []pullXfer {
			return []pullXfer{
				b.xfer(0, 3, 1, 5*chunk+7, 0, 0),
				b.xfer(0, 2, 2, 4*chunk+3, 0, 0),
			}
		}},
		// An eager message from the pulling node reaches the sender while its
		// NIC is streaming, and one from a third node lands on the pulling NIC
		// mid-stream: its delivery time depends on the receive-PCI clock the
		// stream's untimed placements advance.
		pullScenario{"pull-crosses-eager", func(b *pullBed) []pullXfer {
			return []pullXfer{
				b.xfer(0, 3, 1, 8*chunk, 0, 0),
				b.xfer(3, 0, 2, 512, 9*simtime.Microsecond, 0),
				b.xfer(1, 3, 3, 700, 12*simtime.Microsecond, 0),
			}
		}},
		// The rendezvous arrives long before its receive is posted: it parks
		// on the NIC and the post starts the pull.
		pullScenario{"unexpected-then-posted", func(b *pullBed) []pullXfer {
			return []pullXfer{b.xfer(0, 3, 1, 3*chunk+5, 0, 40*simtime.Microsecond)}
		}},
	)
}

// pullRun replays one scenario, checks its data and renders what the golden
// pins: "<ps>@send<rank>:<bytes>" and "<ps>@recv<rank>:<bytes>" for every
// handle, in time order.
func pullRun(t *testing.T, shards int, sc pullScenario) rectest.Trace {
	b := newPullBed(shards)
	defer b.k.Close()
	var tr rectest.Trace
	if shards <= 1 {
		tr.Watch(b.k)
	}
	xfers := sc.run(b)
	b.run()
	for _, x := range xfers {
		if !bytes.Equal(x.dst, x.src) {
			t.Errorf("%s did not land intact", x.what)
		}
	}
	var done []trace.Event
	for _, r := range b.recs {
		for _, e := range r.Events() {
			if e.Kind == trace.SendCompleted || e.Kind == trace.RecvCompleted {
				done = append(done, e)
			}
		}
	}
	sort.SliceStable(done, func(i, j int) bool { return done[i].At < done[j].At })
	for _, e := range done {
		who := "send"
		if e.Kind == trace.RecvCompleted {
			who = "recv"
		}
		tr.Completed = append(tr.Completed, fmt.Sprintf("%d@%s%d:%d", int64(e.At), who, e.Rank, e.Bytes))
	}
	tr.Steps, tr.End = b.k.Steps(), int64(b.k.Now())
	return tr
}

// TestPullMatchesPerChunkPull replays the script without worker shards and
// on 2 and 4 against the recording of the per-chunk code. What that code
// executed and this one does not are the placement timers of non-final
// chunks: the recording's "placed" line, chunks−1 per pull.
func TestPullMatchesPerChunkPull(t *testing.T) {
	golden := rectest.Read(t, "testdata/pull_golden.txt")
	for _, sc := range pullScenarios() {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				rec := golden[sc.name]
				rectest.Compare(t, pullRun(t, shards, sc), rec, rec["placed"])
			})
		}
	}
}

// pulls sends n messages of size bytes from node 0 to node 3, each waited
// for, and runs the kernel to completion.
func (b *pullBed) pulls(tb testing.TB, n, size int) {
	src, dst := make([]byte, size), make([]byte, size)
	b.host[0].Spawn("s", func(th *simtime.Thread) {
		for i := 0; i < n; i++ {
			b.ep[0].Send(th, 3, 1, src)
		}
	})
	got := 0
	b.host[3].Spawn("r", func(th *simtime.Thread) {
		for ; got < n; got++ {
			b.ep[3].Recv(th, 0, 1, dst)
		}
	})
	b.k.Run()
	if got != n {
		tb.Fatalf("%d of %d messages completed", got, n)
	}
}

// untraced detaches the bed's recorders: recording allocates.
func (b *pullBed) untraced() *pullBed {
	for _, ep := range b.ep {
		ep.SetTracer(nil)
	}
	return b
}

// TestPullAllocatesPerTransfer: a 1 MB pull allocates what a 4 KB one does —
// the handles, the stream, its two closures, the final chunk's timer and the
// control packets — so a chunk costs no allocation at either end. A staging
// copy, a boxed payload or a closure per chunk would each show here as some 520
// allocations.
func TestPullAllocatesPerTransfer(t *testing.T) {
	b := newPullBed(1).untraced()
	defer b.k.Close()
	b.pulls(t, 4, 1<<20) // warm the event heap, the fabric's queues and the pools
	mallocs := func(size int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.pulls(t, 16, size)
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / 16
	}
	small, large := mallocs(4<<10), mallocs(1<<20)
	t.Logf("%.1f allocations per 4 KB pull, %.1f per 1 MB pull", small, large)
	if large > small+2 {
		t.Errorf("a 1 MB pull allocates %.1f objects, a 4 KB one %.1f: want the same", large, small)
	}
}

// TestHandlesDoNotOutliveTheirMessages: an eager send is complete when Isend
// returns and must leave nothing behind; a rendezvous send and every receive
// leave their tables when they complete.
func TestHandlesDoNotOutliveTheirMessages(t *testing.T) {
	b := newPullBed(1)
	defer b.k.Close()
	sizes := []int{0, 4, b.ep[0].EagerLimit(), b.ep[0].EagerLimit() + 1, 64 << 10}
	for _, rank := range []int{0, 3} {
		peer := 3 - rank
		b.host[rank].Spawn("pingpong", func(th *simtime.Thread) {
			for i := 0; i < 20; i++ {
				buf := make([]byte, sizes[i%len(sizes)])
				if rank == 0 {
					b.ep[rank].Send(th, peer, i, buf)
					b.ep[rank].Recv(th, peer, i, buf)
				} else {
					b.ep[rank].Recv(th, peer, i, buf)
					b.ep[rank].Send(th, peer, i, buf)
				}
			}
		})
	}
	b.run()
	for _, rank := range []int{0, 3} {
		ep := b.ep[rank]
		if st := ep.Stats(); st.EagerTx != 12 || st.RndvTx != 8 {
			t.Fatalf("rank %d sent %d eager and %d rendezvous messages, want 12 and 8", rank, st.EagerTx, st.RndvTx)
		}
		if len(ep.sends) != 0 || len(ep.recvs) != 0 {
			t.Errorf("rank %d is left holding %d sends and %d receives", rank, len(ep.sends), len(ep.recvs))
		}
	}
}

// BenchmarkPull64K is one 64 KB rendezvous message per op: 33 chunks
// stepped by the sender's per-chunk timer and placed by the receiver.
func BenchmarkPull64K(b *testing.B) {
	bd := newPullBed(1).untraced()
	defer bd.k.Close()
	b.ReportAllocs()
	b.ResetTimer()
	bd.pulls(b, b.N, 64<<10)
}
