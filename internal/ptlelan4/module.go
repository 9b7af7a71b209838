// Package ptlelan4 is the paper's primary contribution: the Open MPI
// point-to-point transport layer (PTL) over Quadrics/Elan4.
//
// Protocol summary (§4, §5):
//
//   - Short messages (≤ 1984 B payload after the 64-byte match header) are
//     copied into preallocated 2 KB send buffers and moved by QDMA into the
//     peer's receive queue (QSLOTS).
//   - Long messages send a rendezvous fragment (optionally with inlined
//     data). After the PML match, either the receiver RDMA-reads the
//     remainder and finishes with a FIN_ACK (Fig. 4 — saves one control
//     packet), or it returns an ACK carrying its E4 memory descriptor and
//     the sender RDMA-writes the remainder followed by a FIN (Fig. 3).
//   - The trailing FIN/FIN_ACK can be chained to the last RDMA with the
//     Elan4 chained-event mechanism, removing the host from the critical
//     path (the Fig. 8 "NoChain" ablation turns this off).
//   - Local RDMA completions are detected either by polling per-descriptor
//     events (NoCQ) or through a shared completion queue built from QDMAs
//     chained to the completing RDMA (Fig. 6): OneQueue shares the receive
//     queue, TwoQueue uses a separate queue, enabling one- and two-thread
//     asynchronous progress (Table 1).
//   - Processes join the Quadrics network dynamically by claiming a context
//     in the system-wide capability; rank↔VPID resolution goes through the
//     RTE so peers can join, leave and migrate (§4.1).
package ptlelan4

import (
	"encoding/binary"
	"fmt"

	"qsmpi/internal/bufpool"

	"qsmpi/internal/elan4"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/ptl"
	"qsmpi/internal/rte"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Scheme selects the long-message protocol.
type Scheme int

const (
	// RDMARead: receiver pulls, FIN_ACK completes both sides (Fig. 4).
	RDMARead Scheme = iota
	// RDMAWrite: receiver ACKs with its memory, sender pushes, FIN
	// notifies the receiver (Fig. 3).
	RDMAWrite
)

func (s Scheme) String() string {
	if s == RDMARead {
		return "rdma-read"
	}
	return "rdma-write"
}

// CQMode selects how local RDMA completions are detected. Its value is the
// number of progress threads it gets under threaded progress (Table 1).
type CQMode int

const (
	// NoCQ polls one Elan event per outstanding descriptor.
	NoCQ CQMode = iota
	// OneQueue chains a completion QDMA into the main receive queue.
	OneQueue
	// TwoQueue chains completion QDMAs into a dedicated queue.
	TwoQueue
)

func (c CQMode) String() string {
	switch c {
	case OneQueue:
		return "one-queue"
	case TwoQueue:
		return "two-queue"
	}
	return "no-cq"
}

// Options configures a module; zero values give the paper's best
// configuration except where noted.
type Options struct {
	Scheme     Scheme
	InlineRndv bool // inline EagerLimit bytes with the rendezvous
	// ChainFin chains the trailing FIN/FIN_ACK to the last RDMA on the
	// NIC. Off = the Fig. 8 "NoChain" ablation (host issues it).
	ChainFin   bool
	CQ         CQMode
	EagerLimit int // 0: the whole QDMA slot after the match header
}

// BestOptions is the configuration §6.5 measures Fig. 10 with: chained
// completion, polling without a shared completion queue, rendezvous
// without inlined data.
func BestOptions(scheme Scheme) Options {
	return Options{Scheme: scheme, InlineRndv: false, ChainFin: true, CQ: NoCQ}
}

// queue ids within the context.
const (
	qidRecv = 0
	qidComp = 1
	qidColl = 2
	// NIC-resident collective tree rings (hwcoll.go): children's combine
	// contributions flow up through qidHWUp, the release wave flows down
	// through qidHWDown.
	qidHWUp   = 3
	qidHWDown = 4
)

// completion-record encoding (local loopback QDMA payload). The first byte
// is outside the ptl.MsgType range so records and wire messages can share
// the OneQueue ring.
const (
	recMagic   = 0xC0
	recPutDone = 1
	recGetDone = 2
)

type peerInfo struct {
	peer *ptl.Peer
	vpid int
}

// localOp is one outstanding RDMA descriptor awaiting local completion
// (NoCQ mode polls these; CQ modes get records instead), with what its
// completion event's chain issues on the NIC. Module.ops recycles them:
// under NoCQ the sweep that completes one returns it, under a CQ mode the
// chain does, the last thing to look at it. ev, its host word and the chain
// closure are made once and survive.
type localOp struct {
	ev    *elan4.Event
	word  simtime.Counter // ev's host word
	chain func()
	kind  byte // recPutDone / recGetDone
	reqID uint64
	bytes int
	fin   *finWork // host-issued FIN when ChainFin is off

	// The chained commands: finHdr to peerVPID when chainFin, rec to our own
	// completion queue under a CQ mode, corr stamped on both.
	peerVPID int
	corr     uint64
	chainFin bool
	finHdr   [ptl.HeaderSize]byte
	rec      [recSize]byte
}

// finWork is a FIN/FIN_ACK the host must issue after observing completion.
// corr carries the message correlator onto the host-issued QDMA.
type finWork struct {
	dstVPID int
	payload [ptl.HeaderSize]byte
	corr    uint64
}

// finKey indexes host-issued FIN work by completion record identity.
type finKey struct {
	kind  byte
	reqID uint64
}

// Stats counts module activity for tests and experiments.
type Stats struct {
	EagerTx, RndvTx int64
	AckTx, FinTx    int64
	FinAckTx        int64
	PutOps, GetOps  int64
	CQRecords       int64
	HostIssuedFins  int64
	// SendBufHighWater is the peak number of send buffers in flight;
	// SendBufStalls counts sends that had to wait for a buffer.
	SendBufHighWater int64
	SendBufStalls    int64
	// SlotEvents and LocalOps count the two free lists: Gets == Puts once
	// no send buffer is held and no RDMA is outstanding.
	SlotEvents, LocalOps bufpool.ListStats
}

// Module is one PTL/Elan4 endpoint (one per NIC context).
type Module struct {
	lc   *ptl.Lifecycle
	k    *simtime.Kernel
	sc   simtime.Sched
	host *simtime.Host
	st   *libelan.State
	rteH *rte.Handle
	pml  ptl.PML
	act  *simtime.Counter
	cfg  model.Config
	opts Options

	recvQ *libelan.Queue
	compQ *libelan.Queue
	collQ *libelan.Queue
	// sendBufs is the pool of preallocated 2 KB send buffers (§5): a
	// first fragment or control message holds one from issue until the
	// remote deposit is acknowledged; senders stall when the pool drains,
	// which is the natural backpressure of the design.
	sendBufs *simtime.Semaphore
	// slots holds the completion events of the send buffers not in use:
	// each re-arms itself and comes back from its own chain (acquireSendBuf).
	slots bufpool.FreeList[elan4.Event]
	// collPending parks hardware-collective chunks that arrived from a
	// different root than the one currently being received (consecutive
	// collectives overlapping in the network). A parked chunk keeps its
	// bytes until it is consumed and released to collQ.
	collPending []elan4.QueuedMsg

	// pool recycles the transient header+inline staging buffers built for
	// each outgoing QDMA (IssueQDMA copies synchronously, so staging can
	// be released as soon as the issue call returns).
	pool *bufpool.Pool

	// hw is the NIC-resident collective combine tree, built once by
	// SetupHWColl for static worlds (nil otherwise — software fallback).
	hw *hwTree

	peers       map[int]peerInfo // by rank, sized by the first AddProcs
	outstanding []*localOp
	ops         bufpool.FreeList[localOp]
	pendingFins map[finKey]*finWork
	stopping    bool
	threads     int // progress threads: int(CQ) under threaded progress

	stats Stats

	// onSendError and onRecvError are what the descriptors this module
	// issues fail into, sweepCheck a sweep's check, bound once: a method
	// value per send or sweep would allocate.
	onSendError, onRecvError func(error)
	sweepCheck               func(int) bool
	// adding holds the peers of the AddProcs call in progress, which
	// addingName and connect (connectPeer) read by index.
	adding     []ptl.Peer
	addingName func(int) string
	connect    func(int, []byte) error

	// tracer, when attached, receives PTL-layer protocol events; nil-check
	// cheap when detached and adds no virtual-time cost.
	tracer *trace.Recorder
}

// SetTracer attaches a cross-layer event recorder (nil detaches it).
func (m *Module) SetTracer(r *trace.Recorder) { m.tracer = r }

func (m *Module) trace(kind trace.Kind, reqID uint64, peer, tag, bytes int) {
	m.traceCorr(kind, reqID, peer, tag, bytes, 0)
}

// traceCorr records a PTL event carrying a cross-rank message correlator.
func (m *Module) traceCorr(kind trace.Kind, reqID uint64, peer, tag, bytes int, corr uint64) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(trace.Event{
		At: m.sc.Now(), Rank: m.pml.Rank(), Layer: trace.LayerPTL, Kind: kind,
		ReqID: reqID, Peer: peer, Tag: tag, Bytes: bytes, Corr: corr,
	})
}

// New creates (and opens) a PTL/Elan4 module bound to a libelan state, an
// RTE handle for connection bootstrap, and the PML upcall interface.
// activity is the PML's shared progress word; threaded, the PML's mode.
func New(k *simtime.Kernel, host *simtime.Host, st *libelan.State, rteH *rte.Handle, p ptl.PML, activity *simtime.Counter, cfg model.Config, opts Options, threaded bool) *Module {
	if opts.EagerLimit == 0 {
		opts.EagerLimit = cfg.QDMAMaxPayload - ptl.HeaderSize
	}
	m := &Module{
		lc: ptl.NewLifecycle("elan4"), k: k, sc: host.Sched(), host: host, st: st, rteH: rteH,
		pml: p, act: activity, cfg: cfg, opts: opts,
		pool:        bufpool.New(),
		pendingFins: make(map[finKey]*finWork),
	}
	if threaded {
		m.threads = int(opts.CQ)
	}
	m.onSendError = func(err error) { panic(fmt.Sprintf("ptlelan4: transmit failure: %v", err)) }
	m.onRecvError = func(err error) { panic(fmt.Sprintf("ptlelan4: RDMA read failure: %v", err)) }
	m.sweepCheck = m.ready
	m.addingName = func(i int) string { return m.adding[i].Name }
	m.connect = m.connectPeer
	m.lc.Open()
	return m
}

// Init is the second lifecycle stage: allocate queues, publish addressing
// through the RTE modex, and start progress threads if configured.
func (m *Module) Init(th *simtime.Thread) {
	m.recvQ = m.st.NewQueue(qidRecv, m.cfg.QueueSlots)
	m.recvQ.Raw().AddNotify(m.act)
	m.collQ = m.st.NewQueue(qidColl, m.cfg.QueueSlots)
	m.sendBufs = simtime.NewSemaphore(m.cfg.QueueSlots)
	if m.opts.CQ == TwoQueue {
		m.compQ = m.st.NewQueue(qidComp, m.cfg.QueueSlots)
		m.compQ.Raw().AddNotify(m.act)
	}
	vpid := make([]byte, 4)
	binary.LittleEndian.PutUint32(vpid, uint32(m.st.Ctx.VPID()))
	m.rteH.Publish(th, "elan4:vpid", vpid)
	m.lc.Activate()

	switch m.threads {
	case 1:
		m.spawnProgressThread("elan4-progress", m.recvQ)
	case 2:
		// With two progress threads sharing the host every wake pays the
		// contention surcharge — the Table 1 one-vs-two-thread gap.
		m.recvQ.WakePenalty = m.cfg.ThreadContention
		m.compQ.WakePenalty = m.cfg.ThreadContention
		m.spawnProgressThread("elan4-recv", m.recvQ)
		m.spawnProgressThread("elan4-comp", m.compQ)
	}
}

// Stats returns a copy of the activity counters.
func (m *Module) Stats() Stats {
	s := m.stats
	s.SlotEvents, s.LocalOps = m.slots.Stats(), m.ops.Stats()
	return s
}

// OutstandingDMA reports how many local RDMA descriptors await completion
// plus FINs the host still owes — the watchdog's stall-diagnostic probe.
func (m *Module) OutstandingDMA() int {
	return len(m.outstanding) + len(m.pendingFins)
}

// QueueHighWater reports the deepest occupancy the receive queue and (when
// configured) the completion queue have reached — the CQ-depth metric.
func (m *Module) QueueHighWater() (recv, comp int) {
	if m.recvQ != nil {
		recv = m.recvQ.Raw().HighWater()
	}
	if m.compQ != nil {
		comp = m.compQ.Raw().HighWater()
	}
	return recv, comp
}

// QueueDepths reports the *current* occupancy of the receive queue and
// (when configured) the completion queue — the instantaneous gauge behind
// the recvq_depth/cq_depth metrics, complementing the high-water marks.
func (m *Module) QueueDepths() (recv, comp int) {
	if m.recvQ != nil {
		recv = m.recvQ.Raw().Pending()
	}
	if m.compQ != nil {
		comp = m.compQ.Raw().Pending()
	}
	return recv, comp
}

// SendBufInFlight reports how many preallocated send buffers are
// currently held by outstanding QDMAs — the instantaneous companion to
// the SendBufHighWater statistic, read by the telemetry sampler.
func (m *Module) SendBufInFlight() int {
	return m.cfg.QueueSlots - m.sendBufs.Available()
}

// Lifecycle exposes the component stage for tests.
func (m *Module) Lifecycle() *ptl.Lifecycle { return m.lc }

// ---- ptl.Module interface ----

// Params implements ptl.Module: every Quadrics rail weighs the same.
func (m *Module) Params() ptl.Params {
	return ptl.Params{EagerLimit: m.opts.EagerLimit, InlineRndv: m.opts.InlineRndv, Weight: 1}
}

// PoolStats implements ptl.Module: the staging buffer pool.
func (m *Module) PoolStats() bufpool.Stats { return m.pool.Stats() }

// RegisterMem implements ptl.Module: the §4.2 E4Addr transformation.
func (m *Module) RegisterMem(buf []byte) elan4.E4Addr {
	return m.st.Ctx.Register(buf)
}

// UnregisterMem implements ptl.Module.
func (m *Module) UnregisterMem(a elan4.E4Addr) { m.st.Ctx.Unregister(a) }

// AddProcs implements ptl.Module: resolve each peer's VPID through the
// RTE modex (connection setup — static tables would preclude dynamic joins).
func (m *Module) AddProcs(th *simtime.Thread, peers []ptl.Peer) error {
	m.lc.RequireActive("AddProcs")
	if m.peers == nil {
		m.peers = make(map[int]peerInfo, len(peers))
	}
	m.adding = peers
	err := m.rteH.LookupEach(th, "elan4:vpid", len(peers), m.addingName, m.connect)
	m.adding = nil
	return err
}

// connectPeer connects peer i of the AddProcs call in progress to the
// VPID it published.
func (m *Module) connectPeer(i int, raw []byte) error {
	p := &m.adding[i]
	if len(raw) != 4 {
		return fmt.Errorf("ptlelan4: bad vpid modex entry for %q", p.Name)
	}
	m.peers[p.Rank] = peerInfo{peer: p, vpid: int(binary.LittleEndian.Uint32(raw))}
	return nil
}

// DelProc implements ptl.Module.
func (m *Module) DelProc(th *simtime.Thread, p *ptl.Peer) {
	delete(m.peers, p.Rank)
}

func (m *Module) peer(rank int) peerInfo {
	pi, ok := m.peers[rank]
	if !ok {
		panic(fmt.Sprintf("ptlelan4: peer %d not connected", rank))
	}
	return pi
}

// acquireSendBuf takes one preallocated send buffer, stalling the caller
// when the pool is exhausted, and returns the completion event that
// releases it once the remote deposit is acknowledged.
func (m *Module) acquireSendBuf(th *simtime.Thread) *elan4.Event {
	if !m.sendBufs.TryAcquire() {
		m.stats.SendBufStalls++
		m.sendBufs.Acquire(th.Proc())
	}
	inFlight := int64(m.cfg.QueueSlots - m.sendBufs.Available())
	if inFlight > m.stats.SendBufHighWater {
		m.stats.SendBufHighWater = inFlight
	}
	ev := m.slots.Get()
	if ev == nil {
		ev = m.st.Ctx.NewEvent(1)
		ev.Chain(func() {
			// On the NIC as the count reached zero, where a re-arm is
			// sound. The event goes back as it is, chain and all.
			ev.Rearm(1)
			m.slots.Put(ev, *ev)
			m.sendBufs.Release()
		})
	}
	return ev
}

// SendFirst implements ptl.Module: copy header+inline payload into a
// preallocated send buffer and QDMA it to the peer's receive queue.
func (m *Module) SendFirst(th *simtime.Thread, p *ptl.Peer, sd *ptl.SendDesc) {
	m.lc.RequireActive("SendFirst")
	inline := int(sd.Hdr.FragLen)
	payload := m.pool.Get(ptl.HeaderSize + inline)
	sd.Hdr.EncodeTo(payload)
	copy(payload[ptl.HeaderSize:], sd.Mem.Buf[:inline])
	// Copy into the 2KB send buffer (the preallocation of §5).
	buf := m.acquireSendBuf(th)
	th.Compute(m.st.Cfg.MemcpyStartup + simtime.BytesAt(len(payload), m.st.Cfg.MemcpyBandwidth))
	corr := m.tracer.MsgID(m.pml.Rank(), sd.Hdr.SendReq)
	m.st.Ctx.SetCookie(corr)
	m.st.QDMA(th, m.peer(p.Rank).vpid, qidRecv, payload, buf, m.onSendError)
	m.pool.Put(payload)
	if sd.Hdr.Type == ptl.TypeMatch {
		m.stats.EagerTx++
		m.traceCorr(trace.PTLEagerTx, sd.Hdr.SendReq, p.Rank, int(sd.Hdr.Tag), inline, corr)
		// Eager data is buffered; the request's bytes are locally complete
		// (send-side completion is off the critical path, §6.3).
		m.pml.SendProgress(th, sd.Hdr.SendReq, inline)
	} else {
		m.stats.RndvTx++
		m.traceCorr(trace.PTLRndvTx, sd.Hdr.SendReq, p.Rank, int(sd.Hdr.Tag), int(sd.Hdr.MsgLen), corr)
	}
}

// Put implements ptl.Module: RDMA-write [off,off+ln) into the receiver's
// memory at remote, then FIN it the byte count. Only the write scheme ACKs
// a match, so under the read scheme nothing calls Put: the receiver pulls.
func (m *Module) Put(th *simtime.Thread, p *ptl.Peer, sd *ptl.SendDesc, remote elan4.E4Addr, off, ln int) {
	m.lc.RequireActive("Put")
	m.stats.PutOps++
	corr := m.tracer.MsgID(m.pml.Rank(), sd.Hdr.SendReq)
	m.traceCorr(trace.PTLPutIssued, sd.Hdr.SendReq, p.Rank, int(sd.Hdr.Tag), ln, corr)
	vpid := m.peer(p.Rank).vpid

	fin := sd.Hdr
	fin.Type = ptl.TypeFin
	fin.Offset = uint64(off)
	fin.FragLen = uint32(ln)
	op := m.newLocalOp(recPutDone, sd.Hdr.SendReq, ln, vpid, &fin, corr)
	m.st.Ctx.SetCookie(corr)
	m.st.RDMAWrite(th, vpid, sd.Mem.E4.Add(off), remote.Add(off), ln, op.ev, m.onSendError)
}

// RawPut implements ptl.RMACapable: a one-sided RDMA write into a remote
// window, used by the MPI-2 RMA layer; onDone fires once the write is
// network-acknowledged.
func (m *Module) RawPut(th *simtime.Thread, p *ptl.Peer, src []byte, remote elan4.E4Addr, off int, onDone func()) {
	m.lc.RequireActive("RawPut")
	srcE4, ev := m.rmaOp(src, onDone)
	m.st.RDMAWrite(th, m.peer(p.Rank).vpid, srcE4, remote.Add(off), len(src), ev, m.onSendError)
}

// RawGet implements ptl.RMACapable: a one-sided RDMA read from a remote
// window.
func (m *Module) RawGet(th *simtime.Thread, p *ptl.Peer, remote elan4.E4Addr, off int, dst []byte, onDone func()) {
	m.lc.RequireActive("RawGet")
	dstE4, ev := m.rmaOp(dst, onDone)
	m.st.RDMARead(th, m.peer(p.Rank).vpid, remote.Add(off), dstE4, len(dst), ev, m.onRecvError)
}

// rmaOp transforms the local buffer of a one-sided operation to an E4
// address on the fly (Quadrics needs no pre-registration) and returns it
// with the operation's completion event, whose chain drops the mapping
// again and fires onDone.
func (m *Module) rmaOp(buf []byte, onDone func()) (elan4.E4Addr, *elan4.Event) {
	a := m.st.Ctx.Register(buf)
	ev := m.st.Ctx.NewEvent(1)
	ev.SetHostWord(simtime.NewCounter())
	ev.AddNotify(m.act)
	ev.Chain(func() {
		m.st.Ctx.Unregister(a)
		onDone()
	})
	return a, ev
}

// Matched implements ptl.Module (the paper's ptl_matched): execute the
// configured rendezvous scheme for a freshly matched message.
func (m *Module) Matched(th *simtime.Thread, p *ptl.Peer, rd ptl.RecvDesc) {
	m.lc.RequireActive("Matched")
	vpid := m.peer(p.Rank).vpid
	inline := int(rd.Hdr.FragLen)
	rest := int(rd.Hdr.MsgLen) - inline

	corr := m.tracer.MsgID(p.Rank, rd.Hdr.SendReq)
	if m.opts.Scheme == RDMAWrite {
		// Fig. 3: ACK with our memory descriptor; the sender will Put.
		h := rd.Hdr
		h.Type = ptl.TypeAck
		h.RecvReq = rd.ReqID
		payload := m.pool.Get(ptl.HeaderSize + 8)
		h.EncodeTo(payload)
		binary.LittleEndian.PutUint64(payload[ptl.HeaderSize:], uint64(rd.Mem.E4))
		buf := m.acquireSendBuf(th)
		th.Compute(m.st.Cfg.MemcpyStartup + simtime.BytesAt(len(payload), m.st.Cfg.MemcpyBandwidth))
		m.st.Ctx.SetCookie(corr)
		m.st.QDMA(th, vpid, qidRecv, payload, buf, m.onSendError)
		m.pool.Put(payload)
		m.stats.AckTx++
		m.traceCorr(trace.PTLAckTx, rd.ReqID, p.Rank, int(rd.Hdr.Tag), int(rd.Hdr.MsgLen), corr)
		return
	}

	// Fig. 4: RDMA-read the remainder, then FIN_ACK.
	m.stats.GetOps++
	m.traceCorr(trace.PTLGetIssued, rd.ReqID, p.Rank, int(rd.Hdr.Tag), rest, corr)
	h := rd.Hdr
	h.Type = ptl.TypeFinAck
	h.RecvReq = rd.ReqID
	op := m.newLocalOp(recGetDone, rd.ReqID, rest, vpid, &h, corr)
	m.st.Ctx.SetCookie(corr)
	m.st.RDMARead(th, vpid, rd.Hdr.E4SrcAddr().Add(inline), rd.Mem.E4.Add(inline), rest, op.ev, m.onRecvError)
}

// newLocalOp takes the descriptor, with its completion event, for one RDMA
// and wires the configured notification strategy: chained FIN, completion
// queue record, or pollable event. corr is the message correlator stamped
// on every descriptor issued on the message's behalf.
func (m *Module) newLocalOp(kind byte, reqID uint64, bytes, peerVPID int, finHdr *ptl.Header, corr uint64) *localOp {
	op := m.ops.Get()
	if op == nil {
		op = &localOp{ev: m.st.Ctx.NewEvent(1)}
		op.ev.SetHostWord(&op.word)
		op.ev.AddNotify(m.act)
		op.chain = func() { m.chained(op) }
	}
	op.kind, op.reqID, op.bytes, op.peerVPID, op.corr = kind, reqID, bytes, peerVPID, corr

	if finHdr != nil {
		if m.opts.ChainFin {
			finHdr.EncodeTo(op.finHdr[:])
			op.chainFin = true
			if finHdr.Type == ptl.TypeFin {
				m.stats.FinTx++
			} else {
				m.stats.FinAckTx++
			}
		} else {
			// Host must notice completion and issue the FIN itself — the
			// Fig. 8 "NoChain" ablation.
			fw := &finWork{dstVPID: peerVPID, corr: corr}
			finHdr.EncodeTo(fw.payload[:])
			if m.opts.CQ == NoCQ {
				op.fin = fw
			} else {
				m.pendingFins[finKey{kind: kind, reqID: reqID}] = fw
			}
		}
	}

	if m.opts.CQ == NoCQ {
		m.outstanding = append(m.outstanding, op)
	} else {
		encodeRecord(op.rec[:], kind, reqID, bytes)
		m.stats.CQRecords++
	}
	if op.chainFin || m.opts.CQ != NoCQ {
		op.ev.Chain(op.chain)
	}
	return op
}

// chained is a localOp's chain: back-to-back commands issued on the NIC at
// completion, FIN to the peer, then the completion record to our own queue.
// Issuing captures the payloads, so under a CQ mode, where the record is
// all the host will see, the descriptor is then recycled.
func (m *Module) chained(op *localOp) {
	if op.chainFin {
		m.st.Ctx.SetCookie(op.corr)
		m.st.Ctx.QDMAFromNIC(op.peerVPID, qidRecv, op.finHdr[:], nil, m.onSendError)
	}
	if m.opts.CQ != NoCQ {
		q := qidRecv
		if m.opts.CQ == TwoQueue {
			q = qidComp
		}
		m.st.Ctx.SetCookie(op.corr)
		m.st.Ctx.QDMAFromNIC(m.st.Ctx.VPID(), q, op.rec[:], nil, m.onSendError)
		m.releaseOp(op)
	}
}

func (m *Module) releaseOp(op *localOp) {
	op.ev.Chain(nil)
	op.ev.Rearm(1) // it has fired and nothing in flight names it: no decrement to lose
	m.ops.Put(op, localOp{ev: op.ev, chain: op.chain})
}

func decodeE4(b []byte) elan4.E4Addr {
	return elan4.E4Addr(binary.LittleEndian.Uint64(b))
}

// recSize is the length of a completion record.
const recSize = 14

func encodeRecord(b []byte, kind byte, reqID uint64, bytes int) {
	b[0] = recMagic
	b[1] = kind
	binary.LittleEndian.PutUint64(b[2:], reqID)
	binary.LittleEndian.PutUint32(b[10:], uint32(bytes))
}

func decodeRecord(b []byte) (kind byte, reqID uint64, bytes int, ok bool) {
	if len(b) != recSize || b[0] != recMagic {
		return 0, 0, 0, false
	}
	return b[1], binary.LittleEndian.Uint64(b[2:]), int(binary.LittleEndian.Uint32(b[10:])), true
}
