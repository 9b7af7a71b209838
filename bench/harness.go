package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/cluster"
	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// counts are the layer counters and host-clock stages one repetition
// gathers from outside the simulator, through its public accessors and
// the benchmark's own clock brackets.
type counts struct {
	events                             int64 // kernel events executed
	packets, fabricBytes               int64
	routeHits, routeMisses             int64
	qdmas, rdmas, chainFires           int64
	eagerMsgs, rndvMsgs, ctrlMsgs      int64
	msgs, unexpected                   int64
	matchAttempts, bucketHits          int64
	poolGets, poolHits                 int64
	newT, bringupT, runT               time.Duration
	eagerT, rndvT                      time.Duration // pingpong's two phases
	eagerN, rndvKB                     int64
	hostCollT, nicCollT                time.Duration
	hostColls, nicColls                int64
	analyzeT, waitsT, perfettoT, heatT time.Duration
	sweepJobs                          int64
	sweepBusy, sweepElapsed            time.Duration
	claimsPassed                       int64
}

// rep is one repetition of a workload: it accumulates the two clocks, the
// output checks and the layer counters of every cluster the workload runs.
type rep struct {
	e      *env
	traced bool // attach the program's Tracer and Metrics hooks to every cluster

	setup, wall time.Duration    // host clock: bring-up, and body plus post-processing
	sim         simtime.Duration // simulated clock over the bodies
	ops, failed int64
	allocMB     float64
	stolen      float64 // seconds of steal over the repetition
	digest      hash.Hash
	n           counts
	// streams holds one event stream per traced cluster: correlators are
	// only unique within a simulation.
	streams [][]trace.Event
}

func newRep(e *env, traced bool) *rep {
	return &rep{e: e, traced: traced, digest: sha256.New()}
}

// sum is the repetition's sim_digest so far.
func (r *rep) sum() string { return hex.EncodeToString(r.digest.Sum(nil)) }

// note folds an output of the simulator into the digest.
func (r *rep) note(format string, args ...any) { fmt.Fprintf(r.digest, format, args...) }

// post times one post-processing stage, into a counter when the stage has
// one; it counts towards wall_s.
func (r *rep) post(name string, into *time.Duration, fn func()) {
	sp := r.e.spans.open(name)
	t0 := now()
	fn()
	d := now().Sub(t0)
	r.e.spans.close(sp)
	if into != nil {
		*into += d
	}
	r.wall += d
}

// shape is one kind of cluster a workload builds. spec is a function
// because instrumentation objects belong to a single run.
type shape struct {
	name  string
	procs int
	spec  func() cluster.Spec
}

// rankOut is what one rank's body reports; every rank writes only its own
// slot, so sharded runs need no locking.
type rankOut struct {
	ops, failed int64
	sum         uint64       // order-independent fold of what the rank received
	left        simtime.Time // when the rank left the body, on the simulated clock
}

// run brings up one cluster, runs body on every rank and folds the host
// clock stages, the simulated clock, the layer counters, the ranks' checks
// and any Run error into the repetition. It returns rank 0's host-clock
// entry into the body.
func (r *rep) run(sh shape, body func(p *cluster.Proc, out *rankOut)) (enter time.Time, run time.Duration) {
	spec := sh.spec()
	if r.traced && spec.Tracer == nil {
		spec.Tracer, spec.Metrics = trace.NewRecorder(0), obs.New()
	}
	outs := make([]rankOut, sh.procs)
	var simEnter simtime.Time

	t0 := now()
	c := cluster.New(spec, sh.procs)
	t1 := now()
	c.Launch(func(p *cluster.Proc) {
		if p.Rank == 0 {
			enter, simEnter = now(), p.Th.Now()
		}
		body(p, &outs[p.Rank])
		outs[p.Rank].left = p.Th.Now()
	})
	err := c.Run()
	t3 := now()
	if enter.IsZero() {
		enter = t3
	}
	r.e.spans.add("cluster.New "+sh.name, t0, t1)
	r.e.spans.add("bring-up "+sh.name, t1, enter)
	r.e.spans.add("body "+sh.name, enter, t3)

	run = t3.Sub(enter)
	r.setup += enter.Sub(t0)
	r.wall += run
	r.n.newT += t1.Sub(t0)
	r.n.bringupT += enter.Sub(t1)
	r.n.runT += run
	r.n.addCluster(c)

	// The simulated clock runs from rank 0 entering the body to the last
	// rank leaving it; timers still pending then (a watchdog's window) are
	// not the workload's.
	var ops, failed int64
	var sum uint64
	simLeft := simEnter
	for i := range outs {
		ops += outs[i].ops
		failed += outs[i].failed
		sum += outs[i].sum
		simLeft = max(simLeft, outs[i].left)
	}
	simBody := simLeft.Sub(simEnter)
	r.sim += simBody
	if err != nil {
		fmt.Printf("PROBLEM %s: %v\n", sh.name, err)
		failed = ops
	}
	failed = min(failed, ops)
	r.ops += ops
	r.failed += failed
	r.note("%s sim=%d steps=%d ops=%d sum=%x\n", sh.name, simBody, c.K.Steps(), ops, sum)
	if r.traced {
		r.streams = append(r.streams, spec.Tracer.Events())
	}
	return enter, run
}

// addCluster reads every layer's public counters off a finished cluster.
func (n *counts) addCluster(c *cluster.Cluster) {
	n.events += c.K.Steps()
	pool := func(s bufpool.Stats) {
		n.poolGets += s.Gets
		n.poolHits += s.Hits
	}
	for _, rail := range c.RailNICs {
		for _, nic := range rail {
			st := nic.Stats()
			n.qdmas += st.QDMAs
			n.rdmas += st.RDMAWrites + st.RDMAReads
			n.chainFires += st.ChainFires
			pool(nic.PoolStats())
		}
	}
	for _, net := range c.RailNets {
		sent, _ := net.Stats()
		hits, misses := net.RouteCacheStats()
		n.packets += sent
		n.fabricBytes += net.BytesSent()
		n.routeHits += hits
		n.routeMisses += misses
	}
	for _, p := range c.Procs() {
		ps := p.Stack.Stats()
		n.msgs += ps.Sends
		n.unexpected += ps.UnexpectedMsgs
		n.matchAttempts += ps.MatchAttempts
		n.bucketHits += ps.BucketHits
		pool(p.Stack.PoolStats())
		for _, m := range p.Elans {
			es := m.Stats()
			n.eagerMsgs += es.EagerTx
			n.rndvMsgs += es.RndvTx
			n.ctrlMsgs += es.AckTx + es.FinTx + es.FinAckTx
			pool(m.PoolStats())
		}
	}
}

// fill fills b with the bytes of a stream named by (seed, a, b): the
// payload pattern both ends of a message can derive independently.
func fill(b []byte, seed int64, src, dst int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(src+1)<<32 ^ uint64(dst+1)
	for i := range b {
		// xorshift64*: cheap, and every byte depends on the stream.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		b[i] = byte((x * 0x2545f4914f6cdd1d) >> 56)
	}
}

// stampLen is how much of a payload the per-iteration stamp overwrites.
const stampLen = 4

// stamp marks a payload with its iteration so that no two messages of a
// stream are equal; payloads shorter than the stamp carry the pattern only.
func stamp(b []byte, iter int) {
	if len(b) >= stampLen {
		b[0], b[1], b[2], b[3] = byte(iter), byte(iter>>8), byte(iter>>16), byte(iter>>24)
	}
}

// received checks one received payload against the sender's pattern and
// iteration stamp, and counts it as an op.
func (o *rankOut) received(got, pattern []byte, iter int) {
	o.ops++
	ok := true
	if len(got) >= stampLen {
		ok = got[0] == byte(iter) && got[1] == byte(iter>>8) && got[2] == byte(iter>>16) && got[3] == byte(iter>>24) &&
			bytes.Equal(got[stampLen:], pattern[stampLen:len(got)])
		o.sum += uint64(got[len(got)-1]) + uint64(iter)
	}
	if !ok {
		o.failed++
	}
}
