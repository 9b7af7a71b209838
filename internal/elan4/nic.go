package elan4

import (
	"fmt"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/fabric"
	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Resolver maps a Quadrics virtual process id (VPID) to its current
// network location. The run-time environment owns this mapping; keeping it
// indirect is what allows processes to join, disjoin and migrate while the
// NIC model stays ignorant of MPI ranks — the decoupling of rank and VPID
// that §4.1 of the paper introduces.
type Resolver interface {
	Resolve(vpid int) (port, ctx int, ok bool)
}

// Stats counts NIC activity for tests and reports.
type Stats struct {
	QDMAs        int64
	RDMAWrites   int64
	RDMAReads    int64
	BytesSent    int64
	Retries      int64
	Interrupts   int64
	Errors       int64
	DMACompleted int64
	ChainFires   int64
	// Descriptors counts the descriptor free list: Gets == Puts at quiescence.
	Descriptors bufpool.ListStats
}

// NIC is one Elan4 adapter attached to a fabric port. Multiple process
// contexts can be open on one NIC (ranks sharing a node each claim a
// context from the system-wide capability).
type NIC struct {
	k    *simtime.Kernel
	sc   simtime.Sched
	net  *fabric.Network
	port int
	cfg  model.Config
	res  Resolver

	contexts map[int]*Context
	firmware Firmware

	// eng is the DMA engine: a descriptor FIFO drained by kernel timers
	// (see "NIC DMA engine" below).
	eng engine

	// pool recycles QDMA payload copies: taken at issue, returned when the
	// descriptor retires. RDMA data is never staged (see stream).
	pool *bufpool.Pool
	// ops recycles the descriptors themselves (see dmaOp).
	ops bufpool.FreeList[dmaOp]

	// rxPCIFree serializes inbound host-memory placement: the receive side
	// of the PCI bus is one resource, so a small trailing chunk cannot be
	// placed before the large chunks ahead of it.
	rxPCIFree simtime.Time

	stats Stats

	// tracer, when attached, receives descriptor-lifecycle events. All
	// recording is host-side bookkeeping with no virtual-time cost, so an
	// attached tracer cannot perturb the simulation.
	tracer   *trace.Recorder
	traceSeq uint64
}

// SetTracer attaches a cross-layer event recorder (nil detaches it).
func (n *NIC) SetTracer(r *trace.Recorder) { n.tracer = r }

// traceOp records one descriptor-lifecycle event for op at rank.
func (n *NIC) traceOp(rank int, kind trace.Kind, op *dmaOp, peer, bytes int) {
	if n.tracer == nil {
		return
	}
	n.tracer.Record(trace.Event{
		At: n.sc.Now(), Rank: rank, Layer: trace.LayerElan4, Kind: kind,
		ReqID: op.tid, Peer: peer, Bytes: bytes, Corr: op.cookie,
	})
}

// rxPCI books the (FIFO) inbound PCI path for nbytes arriving now and
// returns when they will have been written to host memory, plus a fixed
// extra delay.
func (n *NIC) rxPCI(nbytes int, extra simtime.Duration) simtime.Time {
	start := n.sc.Now()
	if n.rxPCIFree > start {
		start = n.rxPCIFree
	}
	done := start.Add(simtime.BytesAt(nbytes, n.cfg.PCIBandwidth)).Add(extra)
	n.rxPCIFree = done
	return done
}

// Context is a process's attachment to a NIC: its MMU and receive queues.
type Context struct {
	nic    *NIC
	id     int
	vpid   int
	mmu    *MMU
	queues map[int]*RecvQueue
	closed bool

	// cookie is the correlator staged by SetCookie for the next descriptor
	// this context issues; the issue path consumes it (see takeCookie).
	cookie uint64
}

// SetCookie stages a cross-rank correlator (trace.Event.Corr) for the next
// DMA descriptor issued through this context. The simulation is
// cooperative and the issue follows immediately in the caller, so staging
// cannot interleave with another issuer. Zero means "uncorrelated".
func (c *Context) SetCookie(v uint64) { c.cookie = v }

// takeCookie consumes the staged correlator, resetting it so descriptors
// issued by uninstrumented callers stay uncorrelated.
func (c *Context) takeCookie() uint64 {
	v := c.cookie
	c.cookie = 0
	return v
}

type opKind int

const (
	opQDMA opKind = iota
	opQDMABcast
	opRDMAWrite
	opRDMARead
	opReadReply
)

// dmaOp is one descriptor processed by a NIC's DMA engine, with everything
// it puts on the wire. getOp takes one from the NIC's free list; retire, the
// one terminal point every kind reaches exactly once, hands it back. The
// issuing NIC's shard writes it until its first packet leaves; from then
// until the terminal acknowledgement (for a read, the last chunk) comes
// home, the peer NIC's shard reads it and writes the receiver's fields.
type dmaOp struct {
	kind    opKind
	srcCtx  *Context
	dstVPID int

	// QDMA. data is a copy in the issuing NIC's buffer pool: retries re-send
	// it, retire releases it.
	queue int
	data  []byte

	// RDMA
	localAddr  E4Addr
	remoteAddr E4Addr
	n          int
	dstCtx     int // read: the target's context, resolved as the request leaves

	// Read reply (runs on the target NIC)
	replyPort int
	replyOp   *dmaOp // the requester's opRDMARead descriptor

	done    *Event
	onError func(error)
	attempt int
	// failed is set once anything failed the descriptor: done will not fire.
	failed bool

	// tid identifies this descriptor in the trace stream; assigned only
	// when a tracer is attached. cookie is the issuer's staged cross-rank
	// correlator (trace.Event.Corr), 0 when the issuer is uninstrumented.
	tid    uint64
	cookie uint64

	// bcast fan-out: remaining acks before the op completes (1 for
	// unicast).
	pending int
	dsts    []int // broadcast destination VPIDs

	// pkt is a unicast QDMA's packet, st an RDMA's stream (the target NIC's
	// engine fills in a read's), dispatch the n.submit(op) a host issue
	// schedules: their closures are bound once and survive retire.
	pkt      qdmaPkt
	st       stream
	dispatch func()
}

// getOp takes a descriptor from n's free list, zero but for its closures.
func (n *NIC) getOp() *dmaOp {
	op := n.ops.Get()
	if op == nil {
		op = new(dmaOp)
		op.dispatch = func() { n.submit(op) }
		op.pkt.bind()
		op.st.final = func() { op.st.rx.judge(&op.st, op.st.off, len(op.st.src)-op.st.off, true) }
	}
	return op
}

// newOp starts a descriptor issued through c, taking the staged correlator.
func (c *Context) newOp(kind opKind, dstVPID int, done *Event, onError func(error)) *dmaOp {
	op := c.nic.getOp()
	op.kind, op.srcCtx, op.dstVPID, op.done, op.onError = kind, c, dstVPID, done, onError
	op.pending, op.cookie = 1, c.takeCookie()
	return op
}

func (op *dmaOp) fail(n *NIC, err error) {
	op.failed = true
	n.stats.Errors++
	if op.onError != nil {
		op.onError(err)
	}
}

// settle books one destination's last word on the issuing NIC n: the ack of
// its deposit or of a write's final chunk, a read's last chunk, or the error
// that ends the attempt (resolve failure, retry exhaustion). The last one
// completes the descriptor — done fires only if nothing failed it — and
// retires it.
func (op *dmaOp) settle(n *NIC, err error) {
	if err != nil {
		op.fail(n, err)
	}
	if op.pending--; op.pending > 0 {
		return
	}
	if !op.failed {
		n.stats.DMACompleted++
		n.traceOp(op.srcCtx.vpid, trace.DMACompleted, op, op.dstVPID, op.n)
		if op.done != nil {
			op.done.trigger()
		}
	}
	op.retire(n)
}

// retire returns the descriptor and its payload copy to NIC n, which took
// them: exactly once, when nothing in flight names it any more.
func (op *dmaOp) retire(n *NIC) {
	n.pool.Put(op.data)
	n.ops.Put(op, dmaOp{dispatch: op.dispatch, pkt: qdmaPkt{deposit: op.pkt.deposit}, st: stream{final: op.st.final}})
}

// qdmaPkt is a QDMA on the wire: a unicast's lives in its descriptor, a
// broadcast has one per destination. The source NIC's shard writes it before
// it leaves (or is retried); the destination's sets rx, schedules deposit
// and answers with ack or a nackPkt, after which it is the source's again.
type qdmaPkt struct {
	srcVPID, dstVPID int
	dstCtx           int
	queue            int
	data             []byte
	op               *dmaOp
	srcPort          int

	ack     ackPkt
	rx      *NIC   // the NIC depositing it
	deposit func() // rx.deposit(this packet), bound once
}

func (m *qdmaPkt) bind() { m.deposit = func() { m.rx.deposit(m) } }

// fill addresses the packet for op's payload, on the source NIC.
func (m *qdmaPkt) fill(op *dmaOp, srcVPID, dstVPID, dstCtx int) *qdmaPkt {
	m.srcVPID, m.dstVPID, m.dstCtx, m.queue = srcVPID, dstVPID, dstCtx, op.queue
	m.data, m.op, m.srcPort, m.ack.op = op.data, op, op.srcCtx.nic.port, op
	return m
}

// stream is one chunked transfer — an RDMA write, or the reply to an RDMA
// read — as both ends see it. It lives in the issuer's descriptor (op.st):
// the sending engine fills it in and every packet of the transfer carries
// its address as payload; no data is staged. The fabric delivers a (source,
// destination) pair in send order, loss included, so the receiving NIC recovers each
// packet's offset by advancing a cursor by the packet's size, and copies
// source to destination once, when it places the packet. The bytes placed
// are therefore the source's at placement, at most one path latency after
// the PCI read that fetched them; a buffer rewritten under an in-flight RDMA
// is a program error (qsmpilint's ownership flags it).
//
// The sending NIC's shard writes every field but off before the first
// packet leaves and nothing after; off belongs to the receiving NIC.
type stream struct {
	op   *dmaOp // the issuer's descriptor: an opRDMAWrite or an opRDMARead
	src  []byte // the registered source, all of it
	base E4Addr // where src[0] lands
	ctx  int    // write: the destination context
	port int    // write: the source port, for the ack
	off  int    // receive cursor: stops at the final chunk

	// The receiving NIC judges the final chunk, the one at off, in a timer
	// bound once: final. ack is a write's terminal acknowledgement.
	rx    *NIC
	final func()
	ack   ackPkt
}

// ackPkt answers a QDMA or an RDMA write, or refuses a read. more marks the
// error of a write's non-final chunk: the final chunk will answer too.
type ackPkt struct {
	op   *dmaOp
	err  error
	more bool
}

type nackPkt struct {
	orig *qdmaPkt
}

// qdmaMaxRetries bounds NACK retries before a QDMA is failed; combined
// with the backoff this is minutes of virtual time, far beyond any
// well-formed protocol's queue pressure.
const qdmaMaxRetries = 10000

// NewNIC creates an Elan4 adapter on fabric port `port` of net, with its
// DMA engine running. The host is the node the NIC is plugged into; host
// threads pay issue costs, the NIC's own processing happens off-CPU.
func NewNIC(k *simtime.Kernel, host *simtime.Host, net *fabric.Network, port int, cfg model.Config, res Resolver) *NIC {
	n := &NIC{
		k: k, sc: host.Sched(), net: net, port: port, cfg: cfg, res: res,
		contexts: make(map[int]*Context),
		pool:     bufpool.New(),
	}
	n.eng.next, n.eng.start, n.eng.chunk, n.eng.readReq = n.engNext, n.engStart, n.engChunk, n.engReadReq
	net.Attach(port, n.handlePacket)
	return n
}

// Port returns the fabric port this NIC occupies.
func (n *NIC) Port() int { return n.port }

// Stats returns a copy of the activity counters.
func (n *NIC) Stats() Stats {
	s := n.stats
	s.Descriptors = n.ops.Stats()
	return s
}

// PoolStats returns a copy of the payload buffer-pool counters.
func (n *NIC) PoolStats() bufpool.Stats { return n.pool.Stats() }

// OpenContext claims context id on this NIC. Claiming a context that is
// already open panics: the capability allocator (RTE) must hand out
// distinct contexts.
func (n *NIC) OpenContext(id int) *Context {
	return n.OpenContextMMU(id, NewMMU())
}

// OpenContextMMU claims context id backed by an existing translation
// table. Multirail configurations open one context per rail NIC sharing a
// single MMU, so a registration made once is valid on every rail — the
// same-virtual-address replication real multirail libelan relies on.
func (n *NIC) OpenContextMMU(id int, mmu *MMU) *Context {
	if _, dup := n.contexts[id]; dup {
		panic(fmt.Sprintf("elan4: context %d already open on port %d", id, n.port))
	}
	c := &Context{nic: n, id: id, mmu: mmu, queues: make(map[int]*RecvQueue)}
	n.contexts[id] = c
	return c
}

// Close detaches the context. In-flight operations targeting it will NACK
// or fault, which is exactly why the paper's finalization protocol drains
// pending messages synchronously before closing.
func (c *Context) Close() {
	c.closed = true
	delete(c.nic.contexts, c.id)
}

// SetVPID records the virtual process id this context is currently known
// by. The RTE calls it at attach time and again if the process migrates.
func (c *Context) SetVPID(v int) { c.vpid = v }

// VPID returns the context's current virtual process id.
func (c *Context) VPID() int { return c.vpid }

// Register maps a host buffer for RDMA and returns its E4 address.
func (c *Context) Register(buf []byte) E4Addr { return c.mmu.Register(buf) }

// Unregister removes a mapping.
func (c *Context) Unregister(a E4Addr) { c.mmu.Unregister(a) }

// MMU exposes the context's translation table (used by tests).
func (c *Context) MMU() *MMU { return c.mmu }

// ---- Host-side issue paths ----

// IssueQDMA sends data (≤ QDMAMaxPayload) to queue `queue` of the process
// currently known as dstVPID. The calling thread pays the command-issue
// and PIO cost; done (optional) is triggered once the message has been
// deposited remotely. onError (optional) receives delivery failures.
func (c *Context) IssueQDMA(th *simtime.Thread, dstVPID, queue int, data []byte, done *Event, onError func(error)) {
	c.checkQDMASize(data)
	th.Compute(c.nic.cfg.CmdIssue + simtime.BytesAt(len(data), c.nic.cfg.PIOBandwidth))
	c.enqueueOp(c.qdmaOp(opQDMA, dstVPID, queue, data, done, onError))
}

func (c *Context) checkQDMASize(data []byte) {
	if len(data) > c.nic.cfg.QDMAMaxPayload {
		panic(fmt.Sprintf("elan4: QDMA payload %d exceeds %d", len(data), c.nic.cfg.QDMAMaxPayload))
	}
}

// qdmaOp builds a QDMA descriptor, capturing the payload and the staged
// correlator now.
func (c *Context) qdmaOp(kind opKind, dstVPID, queue int, data []byte, done *Event, onError func(error)) *dmaOp {
	op := c.newOp(kind, dstVPID, done, onError)
	op.queue, op.data = queue, c.nic.pool.Get(len(data))
	copy(op.data, data)
	return op
}

// IssueQDMABcast sends one QDMA to queue `queue` of every process in
// dstVPIDs using the fabric's hardware multicast: the switches replicate
// the packet, so shared links carry it once. This is QsNet's hardware
// broadcast; as §4.1 of the paper notes, it requires a synchronized
// (static) group — dynamic joiners cannot be multicast targets until a
// new global address space is established, which callers must enforce.
// done fires after every destination has acknowledged its deposit.
func (c *Context) IssueQDMABcast(th *simtime.Thread, dstVPIDs []int, queue int, data []byte, done *Event, onError func(error)) {
	c.checkQDMASize(data)
	if len(dstVPIDs) == 0 {
		panic("elan4: empty broadcast destination set")
	}
	th.Compute(c.nic.cfg.CmdIssue + simtime.BytesAt(len(data), c.nic.cfg.PIOBandwidth))
	op := c.qdmaOp(opQDMABcast, 0, queue, data, done, onError)
	op.pending, op.dsts = len(dstVPIDs), append([]int(nil), dstVPIDs...)
	c.enqueueOp(op)
}

// IssueRDMAWrite writes n bytes from the local E4 address src to the
// remote E4 address dst in dstVPID's address space. done is triggered on
// network-level completion (data placed and acknowledged).
func (c *Context) IssueRDMAWrite(th *simtime.Thread, dstVPID int, src, dst E4Addr, n int, done *Event, onError func(error)) {
	th.Compute(c.nic.cfg.CmdIssue)
	c.enqueueOp(c.rdmaWriteOp(dstVPID, src, dst, n, done, onError))
}

func (c *Context) rdmaWriteOp(dstVPID int, src, dst E4Addr, n int, done *Event, onError func(error)) *dmaOp {
	op := c.newOp(opRDMAWrite, dstVPID, done, onError)
	op.localAddr, op.remoteAddr, op.n = src, dst, n
	return op
}

// IssueRDMARead reads n bytes from the remote E4 address src in dstVPID's
// address space into the local E4 address dst. done is triggered when all
// data has arrived locally.
func (c *Context) IssueRDMARead(th *simtime.Thread, dstVPID int, src, dst E4Addr, n int, done *Event, onError func(error)) {
	th.Compute(c.nic.cfg.CmdIssue)
	op := c.newOp(opRDMARead, dstVPID, done, onError)
	op.remoteAddr, op.localAddr, op.n = src, dst, n
	c.enqueueOp(op)
}

// QDMAFromNIC enqueues a QDMA directly on the NIC's DMA engine with no
// host involvement or cost. It is the building block of chained events:
// call it from an Event chain closure to fire a QDMA when the event
// completes. The payload is captured now.
func (c *Context) QDMAFromNIC(dstVPID, queue int, data []byte, done *Event, onError func(error)) {
	c.checkQDMASize(data)
	c.nic.submit(c.qdmaOp(opQDMA, dstVPID, queue, data, done, onError))
}

// IssueRDMAWriteFromNIC enqueues an RDMA write directly on the DMA engine
// with no host cost — the chained-event building block for back-to-back
// RDMA operations (call from an Event chain closure).
func (c *Context) IssueRDMAWriteFromNIC(dstVPID int, src, dst E4Addr, n int, done *Event, onError func(error)) {
	c.nic.submit(c.rdmaWriteOp(dstVPID, src, dst, n, done, onError))
}

// ResetEventCountRacy performs the host-side "reset the count and rearm"
// that Fig. 5(c,d) of the paper shows to be unsound: it overwrites the
// event count with newCount without synchronizing against in-flight
// decrements, so completions that arrived since the last fire are lost.
// It exists so the race is demonstrable; real designs use the shared
// completion queue instead.
func (c *Context) ResetEventCountRacy(th *simtime.Thread, ev *Event, newCount int) {
	th.Compute(c.nic.cfg.CmdIssue)
	c.nic.sc.After(c.nic.cfg.NICDispatch, "elan4:event-reset", func() {
		ev.setCount(int64(newCount))
	})
}

// SetEvent is the host SETEVENT command: one decrement of ev's count,
// issued through the command port (CmdIssue on the host, NICDispatch on
// the NIC before the event update lands). This is how a host contributes
// its local arrival to a NIC-resident combining event — the collective
// trees count children's QDMA deposits plus one SETEVENT from the local
// host.
func (c *Context) SetEvent(th *simtime.Thread, ev *Event) {
	th.Compute(c.nic.cfg.CmdIssue)
	c.nic.sc.After(c.nic.cfg.NICDispatch, "elan4:setevent", func() {
		ev.trigger()
	})
}

func (c *Context) enqueueOp(op *dmaOp) {
	c.nic.sc.After(c.nic.cfg.NICDispatch, "elan4:dispatch", op.dispatch)
}

// ---- NIC DMA engine ----
//
// The engine serves one descriptor at a time: DMAStartup, then the
// descriptor's own work — for an RDMA, one PCI read per MTU-size chunk,
// pipelined against the wire, which queues in the fabric's link model. It
// is a state machine stepped by kernel timers, not a proc: the hardware
// retires descriptors with no host thread in the loop, and so does the
// model. Each timer is pushed exactly where the proc-based engine it
// replaced pushed its wake — after whatever the step itself sent — so the
// (time, sequence) order of the simulation is that engine's
// (testdata/engine_golden.txt). Moving a push moves simulated time.

// engine is the state of a NIC's DMA engine.
type engine struct {
	q    simtime.Queue[*dmaOp]
	busy bool // from the first submit to an idle engine until q drains

	// The descriptor in service, where it is going and, for a chunked
	// transfer, the stream and the send cursor into its source.
	op   *dmaOp
	port int
	st   *stream
	off  int

	// The steps, bound once as method values: a timer push per chunk must
	// not allocate a closure.
	next, start, chunk, readReq func()
}

// submit queues a descriptor; an idle engine picks it up at this instant,
// after the events already queued for it.
func (n *NIC) submit(op *dmaOp) {
	e := &n.eng
	e.q.Push(op)
	if !e.busy {
		e.busy = true
		n.sc.After(0, "elan4:engine-kick", e.next)
	}
}

// engNext takes the next descriptor into service, or idles the engine.
func (n *NIC) engNext() {
	e := &n.eng
	e.st = nil
	if e.op, _ = e.q.Pop(); e.op == nil {
		e.busy = false
		return
	}
	n.sc.After(n.cfg.DMAStartup, "elan4:dma-startup", e.start)
}

// engStart runs once the descriptor's startup cost is paid.
func (n *NIC) engStart() {
	e := &n.eng
	op := e.op
	if n.tracer != nil && op.kind != opReadReply {
		n.traceSeq++
		op.tid = n.traceSeq
		var k trace.Kind
		bytes := op.n
		switch op.kind {
		case opQDMA, opQDMABcast:
			k, bytes = trace.QDMAIssued, len(op.data)
		case opRDMAWrite:
			k = trace.RDMAWriteIssued
		case opRDMARead:
			k = trace.RDMAReadIssued
		}
		n.traceOp(op.srcCtx.vpid, k, op, op.dstVPID, bytes)
	}
	switch op.kind {
	case opQDMA:
		n.stats.QDMAs++
		n.stats.BytesSent += int64(len(op.data))
		port, ctx, ok := n.res.Resolve(op.dstVPID)
		if !ok {
			op.settle(n, fmt.Errorf("elan4: QDMA to unknown VPID %d", op.dstVPID))
			break
		}
		n.send(port, len(op.data), op.pkt.fill(op, op.srcCtx.vpid, op.dstVPID, ctx))

	case opQDMABcast:
		n.stats.QDMAs++
		n.stats.BytesSent += int64(len(op.data))
		// Resolve every destination up front; the multicast tree is
		// then built from the ports.
		ports := make([]int, 0, len(op.dsts))
		ctxOf := make(map[int]int, len(op.dsts))
		vpidOf := make(map[int]int, len(op.dsts))
		failed := 0
		for _, v := range op.dsts {
			port, ctx, ok := n.res.Resolve(v)
			if !ok {
				failed++
				continue
			}
			ports = append(ports, port)
			ctxOf[port] = ctx
			vpidOf[port] = v
		}
		if failed > 0 {
			op.fail(n, fmt.Errorf("elan4: broadcast to %d unknown VPIDs", failed))
			op.pending -= failed
		}
		if len(ports) == 0 {
			op.retire(n)
			break
		}
		src := op.srcCtx.vpid
		n.net.SendMulti(n.port, len(op.data), ports, func(dst int) any {
			m := new(qdmaPkt)
			m.bind()
			return m.fill(op, src, vpidOf[dst], ctxOf[dst])
		}, nil)

	case opRDMAWrite:
		n.stats.RDMAWrites++
		port, ctx, ok := n.res.Resolve(op.dstVPID)
		if !ok {
			op.settle(n, fmt.Errorf("elan4: RDMA write to unknown VPID %d", op.dstVPID))
			break
		}
		src, err := op.srcCtx.mmu.Slice(op.localAddr, op.n)
		if err != nil {
			op.settle(n, err)
			break
		}
		e.port = port
		st := &op.st
		st.op, st.src, st.base, st.ctx, st.port = op, src, op.remoteAddr, ctx, n.port
		n.engStream(st)
		return

	case opRDMARead:
		n.stats.RDMAReads++
		port, ctx, ok := n.res.Resolve(op.dstVPID)
		if !ok {
			op.settle(n, fmt.Errorf("elan4: RDMA read from unknown VPID %d", op.dstVPID))
			break
		}
		// STEN get request: a small packet carrying the descriptor.
		e.port, op.dstCtx = port, ctx
		n.sc.After(n.cfg.RDMAReadRequest, "elan4:read-request", e.readReq)
		return

	case opReadReply:
		// Running on the target NIC: stream the requested data back through
		// the requester's descriptor, or fail it; this one is done with.
		var src []byte
		var err error
		if tctx := n.contexts[op.srcCtx.id]; tctx == nil || tctx.closed {
			err = fmt.Errorf("elan4: read from closed context %d", op.srcCtx.id)
		} else {
			src, err = tctx.mmu.Slice(op.remoteAddr, op.n)
		}
		rop := op.replyOp
		e.port = op.replyPort
		op.retire(n)
		if err != nil {
			n.reply(e.port, &ackPkt{op: rop, err: err})
			break
		}
		st := &rop.st
		st.op, st.src, st.base = rop, src, rop.localAddr
		n.engStream(st)
		return
	}
	n.engNext()
}

// engReadReq puts an RDMA read's request on the wire: the descriptor
// itself, which names what to read and where the reply goes.
func (n *NIC) engReadReq() {
	e := &n.eng
	n.send(e.port, 0, e.op)
	n.engNext()
}

// engStream starts walking st's source in MTU-size chunks towards e.port,
// charging the engine's PCI read time before each. A zero-length transfer
// emits one empty final chunk at once, so completion still flows.
func (n *NIC) engStream(st *stream) {
	e := &n.eng
	e.st, e.off = st, 0
	if len(st.src) == 0 {
		n.engChunk()
		return
	}
	n.sc.After(simtime.BytesAt(min(len(st.src), n.cfg.MTU), n.cfg.PCIBandwidth), "elan4:dma-chunk", e.chunk)
}

// engChunk emits the chunk whose PCI read just finished — a packet of that
// size carrying the stream, nothing copied — and starts the next one, or
// the next descriptor after the last.
func (n *NIC) engChunk() {
	e := &n.eng
	left := len(e.st.src) - e.off
	ln := min(left, n.cfg.MTU)
	e.off += ln
	n.stats.BytesSent += int64(ln)
	n.send(e.port, ln, e.st)
	if left -= ln; left == 0 {
		n.engNext()
		return
	}
	n.sc.After(simtime.BytesAt(min(left, n.cfg.MTU), n.cfg.PCIBandwidth), "elan4:dma-chunk", e.chunk)
}

func (n *NIC) send(port, size int, payload any) {
	n.net.Send(&fabric.Packet{Src: n.port, Dst: port, Size: size, Payload: payload}, nil)
}

// ---- NIC receive path ----

func (n *NIC) handlePacket(pkt *fabric.Packet) {
	if n.firmware != nil && n.firmware.HandlePacket(pkt.Payload) {
		return
	}
	switch m := pkt.Payload.(type) {
	case *qdmaPkt:
		m.rx = n
		n.sc.At(n.rxPCI(len(m.data), n.cfg.QDMADeliver), "elan4:qdma-deposit", m.deposit)

	case *stream:
		n.rxChunk(m, pkt.Size)

	case *dmaOp:
		// An RDMA read's request: the requester's descriptor.
		ctx := n.contexts[m.dstCtx]
		if ctx == nil {
			// Fabricate a closed context handle so the engine replies with
			// an error in its own time.
			ctx = &Context{nic: n, id: m.dstCtx, closed: true, mmu: NewMMU()}
		}
		op := n.getOp()
		op.kind, op.srcCtx, op.remoteAddr, op.n = opReadReply, ctx, m.remoteAddr, m.n
		op.replyPort, op.replyOp = pkt.Src, m
		n.submit(op)

	case *ackPkt:
		if m.more {
			m.op.fail(n, m.err)
			return
		}
		m.op.settle(n, m.err)

	case *nackPkt:
		m.orig.op.attempt++
		if m.orig.op.attempt > qdmaMaxRetries {
			m.orig.op.settle(n, fmt.Errorf("elan4: QDMA retries exhausted to VPID %d", m.orig.dstVPID))
			return
		}
		n.stats.Retries++
		if m.orig.op.srcCtx != nil {
			n.traceOp(m.orig.op.srcCtx.vpid, trace.QDMARetried, m.orig.op, m.orig.dstVPID, len(m.orig.data))
		}
		backoff := 10 * n.cfg.WireLatency
		if backoff < simtime.Microsecond {
			backoff = simtime.Microsecond
		}
		n.sc.After(backoff, "elan4:qdma-retry", func() {
			// Re-resolve: the destination may have moved or reappeared.
			port, ctx, ok := n.res.Resolve(m.orig.dstVPID)
			if !ok {
				m.orig.op.settle(n, fmt.Errorf("elan4: QDMA retry to unknown VPID %d", m.orig.dstVPID))
				return
			}
			m.orig.dstCtx = ctx
			n.send(port, len(m.orig.data), m.orig)
		})

	default:
		panic(fmt.Sprintf("elan4: unknown packet payload %T", pkt.Payload))
	}
}

// rxChunk receives the next ln bytes of st. The receive PCI path is booked
// for them either way; what differs is when the NIC acts. A non-final
// chunk is placed here, inside its delivery event: the timer that used to
// place it at the end of its PCI write scheduled nothing, sent nothing and
// touched no timing state, so under the kernel's (time, sequence) order
// running its copy early and dropping it reorders no two surviving events
// (DESIGN §7). The final chunk acknowledges or completes at that instant,
// and a chunk that cannot be placed reports an error at it, so those keep
// the timer and are judged when it fires.
func (n *NIC) rxChunk(st *stream, ln int) {
	off := st.off
	last := off+ln == len(st.src)
	done := n.rxPCI(ln, 0)
	name := "elan4:read-data"
	if st.op.kind == opRDMAWrite {
		name = "elan4:rdma-write"
	}
	if last {
		st.rx = n
		n.sc.At(done, name, st.final)
		return
	}
	st.off += ln
	if n.place(st, off, ln) != nil {
		n.sc.At(done, name, func() { n.judge(st, off, ln, false) })
	}
}

// judge places a chunk at the end of its PCI write. A write answers the
// source: an error at once, the final chunk with the ack that settles the
// descriptor. A read's chunks land on the requester's own NIC.
func (n *NIC) judge(st *stream, off, ln int, last bool) {
	err := n.place(st, off, ln)
	op := st.op
	switch {
	case op.kind == opRDMAWrite && last:
		st.ack = ackPkt{op: op, err: err}
		n.reply(st.port, &st.ack)
	case op.kind == opRDMAWrite:
		if err != nil {
			n.reply(st.port, &ackPkt{op: op, err: err, more: true})
		}
	case last:
		op.settle(n, err)
	case err != nil:
		op.fail(n, err)
	}
}

// deposit runs at the end of a QDMA's PCI write on the destination NIC:
// into the queue and acknowledged, refused, or NACKed when the ring is full.
func (n *NIC) deposit(m *qdmaPkt) {
	m.ack.err = nil
	if ctx := n.contexts[m.dstCtx]; ctx == nil || ctx.closed {
		m.ack.err = fmt.Errorf("elan4: QDMA to closed context %d", m.dstCtx)
	} else if q := ctx.queues[m.queue]; q == nil {
		m.ack.err = fmt.Errorf("elan4: QDMA to missing queue %d", m.queue)
	} else if !q.deposit(m.srcVPID, m.data) {
		n.reply(m.srcPort, &nackPkt{orig: m})
		return
	} else {
		n.traceOp(m.dstVPID, trace.QDMADeposited, m.op, m.srcVPID, len(m.data))
	}
	n.reply(m.srcPort, &m.ack)
}

// place copies st.src[off:off+ln] to where it belongs in the destination
// process's memory: a write names a context of this NIC, a read reply
// lands in the requesting context's own address space.
func (n *NIC) place(st *stream, off, ln int) error {
	mmu := st.op.srcCtx.mmu
	if st.op.kind == opRDMAWrite {
		ctx := n.contexts[st.ctx]
		if ctx == nil || ctx.closed {
			return fmt.Errorf("elan4: RDMA write to closed context %d", st.ctx)
		}
		mmu = ctx.mmu
	}
	dst, err := mmu.Slice(st.base.Add(off), ln)
	if err != nil {
		return err
	}
	copy(dst, st.src[off:off+ln])
	return nil
}

// reply sends a small control packet back to a source NIC. Acks ride the
// reverse path as zero-size packets.
func (n *NIC) reply(port int, payload any) {
	n.net.Send(&fabric.Packet{Src: n.port, Dst: port, Size: 0, Payload: payload}, nil)
}

func (n *NIC) raiseInterrupt(sig *simtime.Signal) {
	n.stats.Interrupts++
	n.sc.After(n.cfg.InterruptLatency, "elan4:irq", sig.Fire)
}
