// Package tport emulates the Quadrics Tport interface that MPICH-QsNetII
// is built on — the paper's performance baseline (§6.5). Tport runs in the
// Elan4's programmable thread processor: tag matching happens ON THE NIC
// against a NIC-resident posted-receive table, eager payloads DMA straight
// into posted user buffers, and large messages rendezvous NIC-to-NIC with
// the receiver pulling pipelined chunks — all without host involvement
// beyond posting descriptors. Its wire header is 32 bytes, half of Open
// MPI's 64.
//
// These are exactly the advantages the paper concedes to MPICH-QsNetII
// (shorter header, NIC-side matching, pipelining) while arguing that Open
// MPI's portability, multi-network concurrency and dynamic process
// requirements preclude them; the Fig. 10 comparison quantifies the cost.
//
// The process pool is static: rank IS the network address, fixed at
// creation. Dynamic joins are impossible by construction, which is the
// other half of the paper's contrast.
package tport

import (
	"fmt"

	"qsmpi/internal/elan4"
	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// AnySource and AnyTag are receive wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// headerBytes is the Tport wire header (vs Open MPI's 64).
const headerBytes = 32

// Wire message types (consumed by NIC firmware).
type eagerPkt struct {
	srcRank int
	tag     int
	data    []byte
	sendID  uint64
	srcPort int
}

type rndvPkt struct {
	srcRank int
	tag     int
	n       int
	sendID  uint64
	srcPort int
}

type pullPkt struct {
	sendID  uint64
	recvID  uint64
	dstPort int
	chunk   int
}

// pullStream is one rendezvous transfer as both NICs see it: the sender's
// firmware allocates one when the pull request arrives and every packet of
// the transfer carries that pointer as its payload; no data is staged. The
// fabric delivers a (source, destination) pair in send order, so the
// receiver recovers each packet's offset from a cursor and copies the
// sender's buffer to its own once, when it places the packet — the sender's
// bytes at placement, which a send that completes after the last placement
// cannot tell from a snapshot at the PCI read. It mirrors elan4's stream and
// does not share its walker: the DMA engine serves one descriptor at a time
// and keeps the send cursor itself; the thread processor interleaves pulls,
// so each carries its own. The sender's entity writes every field but rcvd
// before the first packet leaves and only sent after; rcvd is the receiver's.
type pullStream struct {
	data             []byte // the sender's buffer, all of it: a view
	chunk            int
	sendID, recvID   uint64
	srcPort, dstPort int
	sent, rcvd       int    // send and receive cursors
	step             func() // a chunk's PCI read ended; bound once, not per chunk
}

type sendDonePkt struct {
	sendID uint64
}

// SendHandle tracks one send's completion.
type SendHandle struct {
	ep   *Endpoint
	done *simtime.Counter
	n    int
}

// Wait blocks (polling) until the send completes.
func (h *SendHandle) Wait(th *simtime.Thread) {
	h.done.WaitFor(th.Proc(), 1)
	th.Compute(h.ep.cfg.HostEventPoll)
}

// RecvHandle tracks one posted receive.
type RecvHandle struct {
	ep       *Endpoint
	src, tag int
	buf      []byte
	done     *simtime.Counter

	// filled at completion
	N       int
	Source  int
	TagSeen int

	recvID uint64
	// corr is the matched message's cross-rank correlator (trace.MsgID of
	// the sender's id); zero until matched or when untraced.
	corr uint64
}

// Wait blocks (polling) until the receive completes.
func (h *RecvHandle) Wait(th *simtime.Thread) {
	h.done.WaitFor(th.Proc(), 1)
	th.Compute(h.ep.cfg.HostEventPoll)
}

// Stats counts NIC-side tport activity.
type Stats struct {
	NICMatches int64
	Unexpected int64
	EagerTx    int64
	RndvTx     int64
	PullChunks int64
}

// pending messages parked on the NIC awaiting a matching post.
type pendingMsg struct {
	eager *eagerPkt
	rndv  *rndvPkt
}

// Endpoint is one process's Tport: host-side API plus the NIC firmware.
type Endpoint struct {
	k    *simtime.Kernel
	sc   simtime.Sched
	host *simtime.Host
	nic  *elan4.NIC
	cfg  model.Config
	rank int
	// static rank→fabric-port table: the static pool of processes the
	// default Quadrics libraries assume.
	ports []int

	// chunk is a pull's chunk, an MTU less the header, and the largest
	// eager message: one that fits one packet.
	chunk int

	// NIC-resident state (mutated only in NIC event context).
	posted     []*RecvHandle
	unexpected []*pendingMsg
	sends      map[uint64]*sendState
	recvs      map[uint64]*RecvHandle
	nextSend   uint64
	nextRecv   uint64

	stats  Stats
	tracer *trace.Recorder
}

type sendState struct {
	h    *SendHandle
	data []byte
	dst  int
}

// New creates a Tport endpoint for rank on nic, with the full static
// rank→port map. It installs itself as the NIC's firmware.
func New(k *simtime.Kernel, host *simtime.Host, nic *elan4.NIC, cfg model.Config, rank int, ports []int) *Endpoint {
	e := &Endpoint{
		k: k, sc: host.Sched(), host: host, nic: nic, cfg: cfg, rank: rank, ports: ports,
		chunk:    cfg.MTU - headerBytes,
		sends:    make(map[uint64]*sendState),
		recvs:    make(map[uint64]*RecvHandle),
		nextSend: 1,
		nextRecv: 1,
	}
	nic.SetFirmware(e)
	return e
}

// Rank returns this endpoint's rank (== its VPID: the static coupling the
// paper's design had to break).
func (e *Endpoint) Rank() int { return e.rank }

// EagerLimit returns the eager/rendezvous threshold.
func (e *Endpoint) EagerLimit() int { return e.chunk }

// Stats returns a copy of the counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// SetTracer attaches a cross-layer event recorder. Tport events are
// tagged LayerTport and correlated with trace.MsgID(srcRank, sendID), so
// the obs profiler decomposes Tport transfers the same way it does the
// Open MPI stack's.
func (e *Endpoint) SetTracer(rec *trace.Recorder) { e.tracer = rec }

// trace records one event attributed to this endpoint's rank; no-op when
// untraced.
func (e *Endpoint) trace(kind trace.Kind, reqID uint64, peer, tag, bytes int, corr uint64) {
	if e.tracer == nil {
		return
	}
	e.tracer.Record(trace.Event{
		At: e.sc.Now(), Rank: e.rank, Layer: trace.LayerTport, Kind: kind,
		ReqID: reqID, Peer: peer, Tag: tag, Bytes: bytes, Corr: corr,
	})
}

// Isend starts a send of data to dst with tag. Small messages are
// buffered and complete locally; large ones complete when the receiver's
// pull finishes.
func (e *Endpoint) Isend(th *simtime.Thread, dst, tag int, data []byte) *SendHandle {
	h := &SendHandle{ep: e, done: simtime.NewCounter(), n: len(data)}
	id := e.nextSend
	e.nextSend++
	e.trace(trace.SendPosted, id, dst, tag, len(data), e.tracer.MsgID(e.rank, id))

	if len(data) <= e.chunk {
		// Host: thin per-message cost + descriptor + payload PIO.
		th.Compute(e.cfg.TportHostCost + e.cfg.CmdIssue +
			simtime.BytesAt(len(data), e.cfg.PIOBandwidth))
		cp := make([]byte, len(data))
		copy(cp, data)
		pkt := &eagerPkt{srcRank: e.rank, tag: tag, data: cp, sendID: id, srcPort: e.nic.Port()}
		e.nicSendAfterDispatch(dst, headerBytes+len(data), pkt)
		e.stats.EagerTx++
		// Buffered: locally complete.
		h.done.Add(1)
		e.trace(trace.SendCompleted, id, dst, tag, len(data), e.tracer.MsgID(e.rank, id))
		return h
	}
	// Rendezvous: descriptor only; the NIC handles everything after, and
	// needs the buffer until the receiver's pull is done.
	e.sends[id] = &sendState{h: h, data: data, dst: dst}
	th.Compute(e.cfg.TportHostCost + e.cfg.CmdIssue)
	pkt := &rndvPkt{srcRank: e.rank, tag: tag, n: len(data), sendID: id, srcPort: e.nic.Port()}
	e.nicSendAfterDispatch(dst, headerBytes, pkt)
	e.stats.RndvTx++
	return h
}

// Send is the blocking form of Isend.
func (e *Endpoint) Send(th *simtime.Thread, dst, tag int, data []byte) {
	e.Isend(th, dst, tag, data).Wait(th)
}

// Irecv posts a receive into the NIC-resident table.
func (e *Endpoint) Irecv(th *simtime.Thread, src, tag int, buf []byte) *RecvHandle {
	h := &RecvHandle{ep: e, src: src, tag: tag, buf: buf, done: simtime.NewCounter()}
	h.recvID = e.nextRecv
	e.nextRecv++
	e.recvs[h.recvID] = h
	th.Compute(e.cfg.TportHostCost + e.cfg.CmdIssue)
	// NIC processes the post: check parked messages, else add to table.
	e.nic.FirmwareDelay(e.cfg.NICDispatch+e.cfg.TportNICMatch, "tport:post", func() {
		e.stats.NICMatches++
		for i, pm := range e.unexpected {
			if e.pendingMatches(h, pm) {
				e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
				e.consume(h, pm)
				return
			}
		}
		e.posted = append(e.posted, h)
	})
	return h
}

// Recv is the blocking form of Irecv; it returns the received length.
func (e *Endpoint) Recv(th *simtime.Thread, src, tag int, buf []byte) int {
	h := e.Irecv(th, src, tag, buf)
	h.Wait(th)
	return h.N
}

func (e *Endpoint) pendingMatches(h *RecvHandle, pm *pendingMsg) bool {
	var src, tag int
	if pm.eager != nil {
		src, tag = pm.eager.srcRank, pm.eager.tag
	} else {
		src, tag = pm.rndv.srcRank, pm.rndv.tag
	}
	return (h.src == AnySource || h.src == src) && (h.tag == AnyTag || h.tag == tag)
}

func (e *Endpoint) nicSendAfterDispatch(dstRank, size int, payload any) {
	port := e.portOf(dstRank)
	e.nic.FirmwareDelay(e.cfg.NICDispatch+e.cfg.DMAStartup, "tport:tx", func() {
		e.nic.FirmwareSend(port, size, payload)
	})
}

func (e *Endpoint) portOf(rank int) int {
	if rank < 0 || rank >= len(e.ports) {
		panic(fmt.Sprintf("tport: rank %d outside static pool of %d", rank, len(e.ports)))
	}
	return e.ports[rank]
}

// ---- NIC firmware (elan4.Firmware) ----

// HandlePacket implements elan4.Firmware: all Tport matching and transfer
// logic, running on the NIC.
func (e *Endpoint) HandlePacket(payload any) bool {
	switch p := payload.(type) {
	case *eagerPkt:
		e.trace(trace.FirstArrived, p.sendID, p.srcRank, p.tag, len(p.data), e.tracer.MsgID(p.srcRank, p.sendID))
		e.nic.FirmwareDelay(e.cfg.TportNICMatch, "tport:match", func() {
			e.stats.NICMatches++
			if h := e.takePosted(p.srcRank, p.tag); h != nil {
				e.deliverEager(h, p)
				return
			}
			e.stats.Unexpected++
			e.trace(trace.Unexpected, p.sendID, p.srcRank, p.tag, len(p.data), e.tracer.MsgID(p.srcRank, p.sendID))
			e.unexpected = append(e.unexpected, &pendingMsg{eager: p})
		})
		return true
	case *rndvPkt:
		e.trace(trace.FirstArrived, p.sendID, p.srcRank, p.tag, p.n, e.tracer.MsgID(p.srcRank, p.sendID))
		e.nic.FirmwareDelay(e.cfg.TportNICMatch, "tport:match", func() {
			e.stats.NICMatches++
			if h := e.takePosted(p.srcRank, p.tag); h != nil {
				e.startPull(h, p)
				return
			}
			e.stats.Unexpected++
			e.trace(trace.Unexpected, p.sendID, p.srcRank, p.tag, p.n, e.tracer.MsgID(p.srcRank, p.sendID))
			e.unexpected = append(e.unexpected, &pendingMsg{rndv: p})
		})
		return true
	case *pullPkt:
		e.streamChunks(p)
		return true
	case *pullStream:
		e.placeChunk(p)
		return true
	case *sendDonePkt:
		st := e.sends[p.sendID]
		if st == nil {
			panic("tport: completion for unknown send")
		}
		delete(e.sends, p.sendID)
		st.h.done.Add(1)
		e.trace(trace.SendCompleted, p.sendID, st.dst, -1, len(st.data), e.tracer.MsgID(e.rank, p.sendID))
		return true
	}
	return false
}

// consume binds a freshly posted receive to a parked message.
func (e *Endpoint) consume(h *RecvHandle, pm *pendingMsg) {
	if pm.eager != nil {
		e.deliverEager(h, pm.eager)
		return
	}
	e.startPull(h, pm.rndv)
}

// takePosted removes and returns the first posted receive matching
// (src, tag), preserving post order.
func (e *Endpoint) takePosted(src, tag int) *RecvHandle {
	for i, h := range e.posted {
		if (h.src == AnySource || h.src == src) && (h.tag == AnyTag || h.tag == tag) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return h
		}
	}
	return nil
}

func (e *Endpoint) deliverEager(h *RecvHandle, p *eagerPkt) {
	if len(p.data) > len(h.buf) {
		panic(fmt.Sprintf("tport: message of %d truncates buffer of %d", len(p.data), len(h.buf)))
	}
	h.Source, h.TagSeen = p.srcRank, p.tag
	h.corr = e.tracer.MsgID(p.srcRank, p.sendID)
	e.trace(trace.Matched, h.recvID, p.srcRank, p.tag, len(p.data), h.corr)
	e.nic.FirmwareRxPCI(len(p.data), 0, "tport:eager-deliver", func() {
		copy(h.buf, p.data)
		e.complete(h, len(p.data))
	})
}

// complete finishes a matched receive of n bytes.
func (e *Endpoint) complete(h *RecvHandle, n int) {
	h.N = n
	delete(e.recvs, h.recvID)
	h.done.Add(1)
	e.trace(trace.RecvCompleted, h.recvID, h.Source, h.TagSeen, n, h.corr)
}

// startPull begins the receiver-driven pipelined transfer of a rendezvous
// message: ask the sender's NIC to stream the data.
func (e *Endpoint) startPull(h *RecvHandle, p *rndvPkt) {
	if p.n > len(h.buf) {
		panic(fmt.Sprintf("tport: message of %d truncates buffer of %d", p.n, len(h.buf)))
	}
	h.Source, h.TagSeen = p.srcRank, p.tag
	h.corr = e.tracer.MsgID(p.srcRank, p.sendID)
	e.trace(trace.Matched, h.recvID, p.srcRank, p.tag, p.n, h.corr)
	e.nic.FirmwareSend(p.srcPort, 0, &pullPkt{
		sendID: p.sendID, recvID: h.recvID, dstPort: e.nic.Port(), chunk: e.chunk,
	})
}

// streamChunks runs at the sender NIC: pipeline the message onto the wire
// in MTU chunks, reading host memory as it goes. Every timer is pushed where
// the per-chunk code this replaced pushed it (testdata/pull_golden.txt):
// moving a push moves simulated time.
func (e *Endpoint) streamChunks(p *pullPkt) {
	st := e.sends[p.sendID]
	if st == nil {
		panic("tport: pull for unknown send")
	}
	ps := &pullStream{
		data: st.data, chunk: p.chunk, sendID: p.sendID, recvID: p.recvID,
		srcPort: e.nic.Port(), dstPort: p.dstPort,
	}
	ps.step = func() {
		ln := min(ps.chunk, len(ps.data)-ps.sent)
		ps.sent += ln
		e.nic.FirmwareSend(ps.dstPort, headerBytes+ln, ps)
		if ps.sent < len(ps.data) {
			e.readChunk(ps)
		}
	}
	e.nic.FirmwareDelay(e.cfg.DMAStartup, "tport:pull-start", func() { e.readChunk(ps) })
}

// readChunk starts the PCI read of the chunk at ps's send cursor.
func (e *Endpoint) readChunk(ps *pullStream) {
	e.stats.PullChunks++
	e.nic.FirmwareTxPCI(min(ps.chunk, len(ps.data)-ps.sent), 0, "tport:chunk", ps.step)
}

// placeChunk runs at the receiver NIC on every packet of a pull and books
// the receive PCI path for it. A non-final chunk is placed at once, inside
// its delivery event: a timer at the end of its PCI write would schedule
// nothing, send nothing and touch no timing state (a leaf, DESIGN §7). The
// final chunk completes both handles at that instant and keeps the timer.
func (e *Endpoint) placeChunk(ps *pullStream) {
	h := e.recvs[ps.recvID]
	if h == nil {
		panic("tport: data for unknown receive")
	}
	off := ps.rcvd
	ln := min(ps.chunk, len(ps.data)-off)
	ps.rcvd += ln
	if ps.rcvd < len(ps.data) {
		e.nic.FirmwareRxPCIBook(ln)
		copy(h.buf[off:], ps.data[off:off+ln])
		return
	}
	e.nic.FirmwareRxPCI(ln, 0, "tport:data", func() {
		copy(h.buf[off:], ps.data[off:])
		e.nic.FirmwareSend(ps.srcPort, 0, &sendDonePkt{sendID: ps.sendID})
		e.complete(h, len(ps.data))
	})
}
