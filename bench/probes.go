package main

import (
	"fmt"
	"math/rand"
	"time"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/datatype"
	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptl"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// A probe is a tight loop on one layer's public functions, measured from
// outside: it does a fixed number of operations and reports host
// nanoseconds per operation, so that a layer can be optimized in isolation
// and the gain predicted before a workload shows it. Each probe runs
// probePasses times and reports the median.
type probe struct {
	name string // the ns-per-operation metric
	// perEvents, when set, is a second metric: kernel events per operation.
	perEvents string
	n         int // operations per pass at scale 1, sized to ~0.1 s
	// run does n operations and returns the host time they took, the
	// number of units to divide it by (operations, or KB), and the kernel
	// events executed.
	run func(n int, seed int64) (elapsed time.Duration, units float64, events int64)
}

const probePasses = 3

var probes = []probe{
	{name: "simtime.event_ns", n: 1_500_000, run: func(n int, _ int64) (time.Duration, float64, int64) { return timerChains(1, n) }},
	{name: "simtime.event_deep_ns", n: 400_000, run: func(n int, _ int64) (time.Duration, float64, int64) { return timerChains(4096, n) }},
	{name: "simtime.handoff_ns", n: 100_000, run: func(n int, _ int64) (time.Duration, float64, int64) { return sleepers(2, n) }},
	{name: "simtime.handoff_1024_ns", n: 50_000, run: func(n int, _ int64) (time.Duration, float64, int64) { return sleepers(1024, n) }},
	{name: "fabric.pkt_ns", perEvents: "fabric.events_per_pkt", n: 100_000, run: fabricPackets},
	{name: "elan4.qdma_ns", perEvents: "elan4.events_per_qdma", n: 20_000, run: qdmaPingPong},
	{name: "elan4.rdma_ns_per_kb", n: 1_000, run: rdmaWrites},
	{name: "pml.match_ns", n: 200_000, run: func(n int, s int64) (time.Duration, float64, int64) { return matching(1, false, n, s) }},
	{name: "pml.match_deep_ns", n: 150_000, run: func(n int, s int64) (time.Duration, float64, int64) { return matching(1024, false, n, s) }},
	{name: "pml.unexpected_ns", n: 100_000, run: func(n int, s int64) (time.Duration, float64, int64) { return matching(1024, true, n, s) }},
	{name: "datatype.pack_contig_ns_per_kb", n: 15_000, run: func(n int, _ int64) (time.Duration, float64, int64) {
		return packing(datatype.Contiguous(64<<10), n)
	}},
	{name: "datatype.pack_vector_ns_per_kb", n: 15_000, run: func(n int, _ int64) (time.Duration, float64, int64) {
		return packing(datatype.Vector(512, 16, 32, datatype.Contiguous(1)), n)
	}},
	{name: "bufpool.getput_ns", n: 6_000_000, run: func(n int, _ int64) (time.Duration, float64, int64) {
		pool := bufpool.New()
		t0 := now()
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(2048))
		}
		return now().Sub(t0), float64(n), 0
	}},
	{name: "trace.record_ns", n: 400_000, run: func(n int, _ int64) (time.Duration, float64, int64) {
		rec := trace.NewRecorder(0)
		t0 := now()
		for i := 0; i < n; i++ {
			rec.Record(trace.Event{At: simtime.Time(i), Rank: i & 15, Layer: trace.LayerPML, Kind: trace.SendPosted,
				ReqID: uint64(i), Peer: 1, Tag: 7, Bytes: 4096, Corr: trace.MsgID(i&15, uint64(i))})
		}
		return now().Sub(t0), float64(n), 0
	}},
	{name: "parsweep.job_overhead_ns", n: 1_500_000, run: func(n int, _ int64) (time.Duration, float64, int64) {
		t0 := now()
		parsweep.Run(0, n, func(_ *parsweep.Ctx, i int) int { return i })
		return now().Sub(t0), float64(n), 0
	}},
}

// runProbes runs every probe and stores its metrics.
func runProbes(v layerValues, e *env) {
	for _, p := range probes {
		sp := e.spans.open("probe " + p.name)
		var ns, perOp []float64
		for pass := 0; pass < probePasses; pass++ {
			elapsed, units, events := p.run(e.n(p.n), e.seed)
			ns = append(ns, float64(elapsed.Nanoseconds())/units)
			perOp = append(perOp, float64(events)/units)
		}
		e.spans.close(sp)
		v.set(p.name, summarize(ns).median)
		if p.perEvents != "" {
			v.set(p.perEvents, summarize(perOp).median)
		}
	}
}

// timerChains keeps `chains` timers pending, each rescheduling itself a
// pseudo-random delay ahead, until n events have run: the event heap at a
// chosen depth, with no process involved.
func timerChains(chains, n int) (time.Duration, float64, int64) {
	k := simtime.NewKernel()
	left := n
	x := uint32(1)
	var tick func()
	tick = func() {
		if left--; left >= chains {
			x = x*1664525 + 1013904223
			k.After(simtime.Duration(1+x>>20), "probe", tick)
		}
	}
	for i := 0; i < chains; i++ {
		k.After(simtime.Duration(i+1), "probe", tick)
	}
	t0 := now()
	k.Run()
	return now().Sub(t0), float64(n), k.Steps()
}

// sleepers runs `procs` processes that each sleep in a loop, n sleeps in
// all: one kernel event and one goroutine handoff each way per sleep.
func sleepers(procs, n int) (time.Duration, float64, int64) {
	k := simtime.NewKernel()
	each := max(1, n/procs)
	for i := 0; i < procs; i++ {
		d := simtime.Duration(1 + i%7)
		k.Spawn(fmt.Sprintf("sleeper%d", i), func(p *simtime.Proc) {
			for j := 0; j < each; j++ {
				p.Sleep(d)
			}
		})
	}
	t0 := now()
	k.Run()
	return now().Sub(t0), float64(each * procs), k.Steps()
}

func fabricParams(cfg model.Config) fabric.Params {
	return fabric.Params{
		LinkBandwidth: cfg.LinkBandwidth, WireLatency: cfg.WireLatency, SwitchLatency: cfg.SwitchLatency,
		MTU: cfg.MTU, PacketOverhead: cfg.PacketOverhead, Arity: cfg.FatTreeRadix,
	}
}

// fabricPackets sends n 256-byte packets between seeded port pairs of a
// 1024-port fat tree, 64 in flight, each delivery injecting the next.
func fabricPackets(n int, seed int64) (time.Duration, float64, int64) {
	const ports, inFlight = 1024, 64
	rng := rand.New(rand.NewSource(seed))
	k := simtime.NewKernel()
	net := fabric.New(k, fabricParams(model.Default()), ports)
	left := n
	send := func() {
		if left > 0 {
			left--
			src := rng.Intn(ports)
			net.Send(&fabric.Packet{Src: src, Dst: (src + 1 + rng.Intn(ports-1)) % ports, Size: 256}, nil)
		}
	}
	for p := 0; p < ports; p++ {
		net.Attach(p, func(*fabric.Packet) { send() })
	}
	k.After(0, "probe", func() {
		for i := 0; i < inFlight; i++ {
			send()
		}
	})
	t0 := now()
	k.Run()
	return now().Sub(t0), float64(n), k.Steps()
}

type vpidTable map[int][2]int

func (t vpidTable) Resolve(v int) (int, int, bool) {
	e, ok := t[v]
	return e[0], e[1], ok
}

// elanPair is two hosts with one Elan4 NIC and one open context each.
func elanPair() (*simtime.Kernel, []*simtime.Host, []*libelan.State) {
	cfg := model.Default()
	k := simtime.NewKernel()
	net := fabric.New(k, fabricParams(cfg), 2)
	var hosts []*simtime.Host
	var states []*libelan.State
	for i := 0; i < 2; i++ {
		h := simtime.NewHost(k, fmt.Sprintf("n%d", i), cfg.HostCPUs)
		ctx := elan4.NewNIC(k, h, net, i, cfg, vpidTable{0: {0, 0}, 1: {1, 0}}).OpenContext(0)
		ctx.SetVPID(i)
		hosts = append(hosts, h)
		states = append(states, libelan.Attach(ctx, cfg))
	}
	return k, hosts, states
}

// qdmaPingPong bounces a 64-byte queued DMA between two NICs, n messages
// in all: the native-QDMA baseline of Fig. 9.
func qdmaPingPong(n int, _ int64) (time.Duration, float64, int64) {
	k, hosts, st := elanPair()
	q := []*libelan.Queue{st[0].NewQueue(1, 64), st[1].NewQueue(1, 64)}
	payload := make([]byte, 64)
	rounds := max(1, n/2)
	for me := 0; me < 2; me++ {
		hosts[me].Spawn("probe", func(th *simtime.Thread) {
			for i := 0; i < rounds; i++ {
				if me == 0 {
					st[0].QDMA(th, 1, 1, payload, nil, nil)
				}
				q[me].Recv(th, libelan.Poll)
				if me == 1 {
					st[1].QDMA(th, 0, 1, payload, nil, nil)
				}
			}
		})
	}
	t0 := now()
	k.Run()
	return now().Sub(t0), float64(2 * rounds), k.Steps()
}

// rdmaWrites does n 64 KB RDMA writes from one NIC to the other, each
// waited for; the result is per KB moved.
func rdmaWrites(n int, _ int64) (time.Duration, float64, int64) {
	const size = 64 << 10
	k, hosts, st := elanPair()
	src, dst := make([]byte, size), make([]byte, size)
	ctx := []*elan4.Context{st[0].Ctx, st[1].Ctx}
	srcAddr, dstAddr := ctx[0].Register(src), ctx[1].Register(dst)
	word := simtime.NewCounter()
	failed := false
	hosts[0].Spawn("probe", func(th *simtime.Thread) {
		for i := 0; i < n && !failed; i++ {
			done := ctx[0].NewEvent(1)
			done.SetHostWord(word)
			st[0].RDMAWrite(th, 1, srcAddr, dstAddr, size, done, func(error) { failed = true })
			word.WaitFor(th.Proc(), int64(i+1))
		}
	})
	t0 := now()
	k.Run()
	if failed || word.Value() != int64(n) {
		panic("bench: RDMA probe did not complete")
	}
	return now().Sub(t0), float64(n) * size / 1024, k.Steps()
}

// matching drives one PML stack's matching engine directly, with the cost
// model zeroed so that no call parks: `depth` receives are posted on
// distinct (source, tag) buckets and empty eager messages arrive for them
// in seeded order, each match re-posting its receive. With unexpected set
// the messages arrive first and the receives find them in the unexpected
// queue. n matches in all.
func matching(depth int, unexpected bool, n int, seed int64) (time.Duration, float64, int64) {
	const sources = 32
	rng := rand.New(rand.NewSource(seed))
	var cfg model.Config
	cfg.HostCPUs = 1
	k := simtime.NewKernel()
	host := simtime.NewHost(k, "n0", 1)
	stack := pml.NewStack(k, host, cfg, 0, false, pml.Polling)
	empty := datatype.Contiguous(0)
	peers := make([]*ptl.Peer, sources)
	seq := make([]uint32, sources)
	for i := range peers {
		peers[i] = &ptl.Peer{Rank: i + 1, Name: fmt.Sprintf("peer%d", i+1)}
	}
	order := rng.Perm(depth)
	var elapsed time.Duration
	matched := true
	host.Spawn("probe", func(th *simtime.Thread) {
		post := func(b int) *pml.RecvReq {
			return stack.Recv(th, peers[b%sources].Rank, b/sources, 0, nil, empty)
		}
		arrive := func(b int) {
			p := b % sources
			hdr := ptl.Header{Type: ptl.TypeMatch, SrcRank: int32(peers[p].Rank), Tag: int32(b / sources), SeqNum: seq[p], SendReq: uint64(b)}
			seq[p]++
			stack.ReceiveFirst(th, nil, peers[p], hdr, nil)
		}
		reqs := make([]*pml.RecvReq, depth)
		if !unexpected {
			for b := range reqs {
				reqs[b] = post(b)
			}
		}
		t0 := now()
		for done := 0; done < n; {
			if unexpected {
				for _, b := range order {
					arrive(b)
				}
				for b := range reqs {
					matched = matched && post(b).Done()
				}
				done += depth
				continue
			}
			for _, b := range order {
				arrive(b)
				matched = matched && reqs[b].Done()
				reqs[b] = post(b)
				done++
			}
		}
		elapsed = now().Sub(t0)
	})
	k.Run()
	if !matched {
		panic("bench: matching probe left a receive unmatched")
	}
	rounds := (n + depth - 1) / depth
	return elapsed, float64(rounds * depth), k.Steps()
}

// packing packs one instance of a datatype n times; the result is per KB
// of packed data.
func packing(dt *datatype.Datatype, n int) (time.Duration, float64, int64) {
	src, dst := make([]byte, dt.Extent()), make([]byte, dt.Size())
	t0 := now()
	for i := 0; i < n; i++ {
		dt.Pack(dst, src)
	}
	return now().Sub(t0), float64(n) * float64(dt.Size()) / 1024, 0
}
