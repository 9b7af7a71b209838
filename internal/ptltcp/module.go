// Package ptltcp is the TCP/IP point-to-point transport — Open MPI's
// first PTL and the baseline the paper contrasts with: every message pays
// kernel crossings, protocol processing and user/kernel copies, in
// exchange for portability. It runs over an Ethernet-parameterized fabric
// and is also the second rail in the multi-network (concurrency)
// scenarios, since a single message can be striped across PTL/Elan4 and
// PTL/TCP by the PML scheduler.
//
// The model charges TCPSyscall per send/recv call, TCPStackCost per MTU
// segment of protocol processing, and copies at TCPCopyBandwidth — the
// "significant operating system overhead and multiple data copies" of the
// paper's introduction.
package ptltcp

import (
	"encoding/binary"
	"fmt"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/model"
	"qsmpi/internal/ptl"
	"qsmpi/internal/rte"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// fragSize is both the largest first-fragment payload and the in-band
// continuation fragment size.
const fragSize = 64 * 1024

// Options configures the TCP PTL.
type Options struct {
	// Weight is the PML scheduling weight (default 0.1: a gigabit rail
	// next to QsNet).
	Weight float64
}

// seg is one TCP segment on the Ethernet wire.
type seg struct {
	srcRank    int
	msgID      uint64
	off, total int
	data       []byte
}

// message is a reassembled PTL message.
type message struct {
	srcRank int
	total   int
	got     int
	buf     []byte
}

// Stats counts module activity.
type Stats struct {
	MsgsTx, MsgsRx int64
	SegsTx, SegsRx int64
	BytesTx        int64
}

// Module is one process's TCP PTL endpoint.
type Module struct {
	lc   *ptl.Lifecycle
	k    *simtime.Kernel
	sc   simtime.Sched
	host *simtime.Host
	net  *fabric.Network
	port int
	rteH *rte.Handle
	pml  ptl.PML
	act  *simtime.Counter
	cfg  model.Config
	opts Options

	peers  map[int]*ptl.Peer // by rank, sized by the first AddProcs
	ports  map[int]int       // peer rank → ethernet port
	nextID uint64
	// adding holds the peers of the AddProcs call in progress, which
	// addingName and connect (connectPeer) read by index; both are bound
	// once.
	adding     []ptl.Peer
	addingName func(int) string
	connect    func(int, []byte) error

	// kernel-side receive state: segments reassembled off the wire
	// without host cost until Progress "reads the socket".
	assembling map[uint64]*message
	inbox      []*message
	segsPend   int

	mss int

	// pool recycles segment copies, reassembly buffers and outgoing
	// payload staging — the per-message allocation churn of the socket
	// path. Segments released here may have been allocated by a peer's
	// module; pools are just recycled storage.
	pool *bufpool.Pool

	stats Stats

	// tracer, when attached, receives PTL-layer protocol events.
	tracer *trace.Recorder
}

// SetTracer attaches a cross-layer event recorder (nil detaches it).
func (m *Module) SetTracer(r *trace.Recorder) { m.tracer = r }

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

// New creates a TCP PTL on the node's Ethernet port. One TCP module per
// node: the port's receive handler is exclusive.
func New(k *simtime.Kernel, host *simtime.Host, net *fabric.Network, port int, rteH *rte.Handle, p ptl.PML, activity *simtime.Counter, cfg model.Config, opts Options) *Module {
	if opts.Weight == 0 {
		opts.Weight = 0.1
	}
	m := &Module{
		lc: ptl.NewLifecycle("tcp"), k: k, sc: host.Sched(), host: host, net: net, port: port,
		rteH: rteH, pml: p, act: activity, cfg: cfg, opts: opts,
		assembling: make(map[uint64]*message),
		mss:        net.Params().MTU,
		nextID:     1,
		pool:       bufpool.New(),
	}
	m.addingName = func(i int) string { return m.adding[i].Name }
	m.connect = m.connectPeer
	m.lc.Open()
	net.Attach(port, m.handlePacket)
	return m
}

// Init publishes this process's Ethernet addressing (lifecycle stage two).
func (m *Module) Init(th *simtime.Thread) {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, uint32(m.port))
	m.rteH.Publish(th, "tcp:port", b)
	m.lc.Activate()
}

// Stats returns a copy of the counters.
func (m *Module) Stats() Stats { return m.stats }

// Lifecycle exposes the component stage.
func (m *Module) Lifecycle() *ptl.Lifecycle { return m.lc }

// ---- ptl.Module ----

// Params implements ptl.Module. TCP always inlines rendezvous data: the
// copy is already paid, so the wire may as well carry it.
func (m *Module) Params() ptl.Params {
	return ptl.Params{EagerLimit: fragSize, InlineRndv: true, Weight: m.opts.Weight}
}

// PoolStats implements ptl.Module: the segment buffer pool.
func (m *Module) PoolStats() bufpool.Stats { return m.pool.Stats() }

// RegisterMem implements ptl.Module: sockets need no transformed
// addressing.
func (m *Module) RegisterMem(buf []byte) elan4.E4Addr { return elan4.NilAddr }

// UnregisterMem implements ptl.Module.
func (m *Module) UnregisterMem(elan4.E4Addr) {}

// AddProcs implements ptl.Module.
func (m *Module) AddProcs(th *simtime.Thread, peers []ptl.Peer) error {
	m.lc.RequireActive("AddProcs")
	if m.peers == nil {
		m.peers, m.ports = make(map[int]*ptl.Peer, len(peers)), make(map[int]int, len(peers))
	}
	m.adding = peers
	err := m.rteH.LookupEach(th, "tcp:port", len(peers), m.addingName, m.connect)
	m.adding = nil
	return err
}

// connectPeer connects peer i of the AddProcs call in progress to the
// Ethernet port it published.
func (m *Module) connectPeer(i int, raw []byte) error {
	p := &m.adding[i]
	if len(raw) != 4 {
		return fmt.Errorf("ptltcp: bad port modex entry for %q", p.Name)
	}
	m.peers[p.Rank] = p
	m.ports[p.Rank] = int(binary.LittleEndian.Uint32(raw))
	return nil
}

// DelProc implements ptl.Module.
func (m *Module) DelProc(th *simtime.Thread, p *ptl.Peer) {
	delete(m.peers, p.Rank)
	delete(m.ports, p.Rank)
}

// SendFirst implements ptl.Module.
func (m *Module) SendFirst(th *simtime.Thread, p *ptl.Peer, sd *ptl.SendDesc) {
	m.lc.RequireActive("SendFirst")
	inline := int(sd.Hdr.FragLen)
	payload := m.pool.Get(ptl.HeaderSize + inline)
	sd.Hdr.EncodeTo(payload)
	copy(payload[ptl.HeaderSize:], sd.Mem.Buf[:inline])
	m.write(th, p, payload)
	m.pool.Put(payload)
	corr := m.tracer.MsgID(m.pml.Rank(), sd.Hdr.SendReq)
	if sd.Hdr.Type == ptl.TypeMatch {
		m.traceCorr(trace.PTLEagerTx, sd.Hdr.SendReq, p.Rank, int(sd.Hdr.Tag), inline, corr)
		// Buffered by the kernel: locally complete.
		m.pml.SendProgress(th, sd.Hdr.SendReq, inline)
	} else {
		m.traceCorr(trace.PTLRndvTx, sd.Hdr.SendReq, p.Rank, int(sd.Hdr.Tag), int(sd.Hdr.MsgLen), corr)
	}
}

// Put implements ptl.Module: sockets have no RDMA, so [off,off+ln) moves
// in-band as FRAGs of at most fragSize, each done once the kernel has it.
func (m *Module) Put(th *simtime.Thread, p *ptl.Peer, sd *ptl.SendDesc, remote elan4.E4Addr, off, ln int) {
	m.lc.RequireActive("Put")
	hdr := sd.Hdr
	hdr.Type = ptl.TypeFrag
	for end := off + ln; off < end; off += fragSize {
		c := min(fragSize, end-off)
		hdr.Offset = uint64(off)
		hdr.FragLen = uint32(c)
		payload := m.pool.Get(ptl.HeaderSize + c)
		hdr.EncodeTo(payload)
		copy(payload[ptl.HeaderSize:], sd.Mem.Buf[off:off+c])
		m.write(th, p, payload)
		m.pool.Put(payload)
		m.pml.SendProgress(th, sd.Hdr.SendReq, c)
	}
}

// Matched implements ptl.Module: reply with an ACK; the sender's PML then
// stripes the remainder, and this module's share moves by Put.
func (m *Module) Matched(th *simtime.Thread, p *ptl.Peer, rd ptl.RecvDesc) {
	m.lc.RequireActive("Matched")
	h := rd.Hdr
	h.Type = ptl.TypeAck
	h.RecvReq = rd.ReqID
	payload := m.pool.Get(ptl.HeaderSize)
	h.EncodeTo(payload)
	m.write(th, p, payload)
	m.pool.Put(payload)
	m.traceCorr(trace.PTLAckTx, rd.ReqID, p.Rank, int(rd.Hdr.Tag), int(rd.Hdr.MsgLen),
		m.tracer.MsgID(p.Rank, rd.Hdr.SendReq))
}

// write models a sendmsg(2): one syscall, per-segment stack processing and
// user→kernel copy, then segments on the Ethernet.
func (m *Module) write(th *simtime.Thread, p *ptl.Peer, payload []byte) {
	port, ok := m.ports[p.Rank]
	if !ok {
		panic(fmt.Sprintf("ptltcp: peer %d not connected", p.Rank))
	}
	segs := (len(payload) + m.mss - 1) / m.mss
	if segs == 0 {
		segs = 1
	}
	th.Compute(m.cfg.TCPSyscall +
		simtime.Duration(segs)*m.cfg.TCPStackCost +
		simtime.BytesAt(len(payload), m.cfg.TCPCopyBandwidth))
	id := m.nextID
	m.nextID++
	m.stats.MsgsTx++
	m.stats.BytesTx += int64(len(payload))
	total := len(payload)
	if total == 0 {
		m.stats.SegsTx++
		m.net.Send(&fabric.Packet{Src: m.port, Dst: port, Size: 0, Payload: &seg{
			srcRank: m.pml.Rank(), msgID: id, off: 0, total: 0,
		}}, nil)
		return
	}
	for off := 0; off < total; off += m.mss {
		ln := total - off
		if ln > m.mss {
			ln = m.mss
		}
		data := m.pool.Get(ln)
		copy(data, payload[off:off+ln])
		m.stats.SegsTx++
		m.net.Send(&fabric.Packet{Src: m.port, Dst: port, Size: ln, Payload: &seg{
			srcRank: m.pml.Rank(), msgID: id, off: off, total: total, data: data,
		}}, nil)
	}
}

// handlePacket runs at wire delivery: kernel-side reassembly, no host
// cost until the application reads the socket in Progress.
func (m *Module) handlePacket(pkt *fabric.Packet) {
	sg, ok := pkt.Payload.(*seg)
	if !ok {
		panic("ptltcp: foreign packet on ethernet port")
	}
	m.segsPend++
	msg, ok := m.assembling[sg.msgID<<16|uint64(sg.srcRank)]
	key := sg.msgID<<16 | uint64(sg.srcRank)
	if !ok {
		msg = &message{srcRank: sg.srcRank, total: sg.total, buf: m.pool.Get(sg.total)}
		m.assembling[key] = msg
	}
	copy(msg.buf[sg.off:], sg.data)
	msg.got += len(sg.data)
	// The segment copy is done with; recycle it into this side's pool.
	m.pool.Put(sg.data)
	sg.data = nil
	m.stats.SegsRx++
	if msg.got >= msg.total {
		delete(m.assembling, key)
		m.inbox = append(m.inbox, msg)
		m.stats.MsgsRx++
		m.act.Add(1)
	}
}

// Progress implements ptl.Module: read the socket — charge the syscall,
// per-segment processing and kernel→user copy for everything pending, then
// dispatch.
func (m *Module) Progress(th *simtime.Thread) {
	if m.lc.Stage() != ptl.StageActive || len(m.inbox) == 0 {
		if m.segsPend > 0 && len(m.inbox) == 0 {
			// Partial messages pending: poll cost only.
			th.Compute(m.cfg.HostEventPoll)
		}
		return
	}
	th.Compute(m.cfg.TCPSyscall + simtime.Duration(m.segsPend)*m.cfg.TCPStackCost)
	m.segsPend = 0
	for len(m.inbox) > 0 {
		msg := m.inbox[0]
		m.inbox = m.inbox[1:]
		th.Compute(simtime.BytesAt(len(msg.buf), m.cfg.TCPCopyBandwidth))
		m.dispatch(th, msg)
		// Dispatch upcalls copy what they keep; the reassembly buffer can
		// be recycled as soon as the message has been consumed.
		m.pool.Put(msg.buf)
		msg.buf = nil
	}
}

func (m *Module) dispatch(th *simtime.Thread, msg *message) {
	hdr, err := ptl.DecodeHeader(msg.buf)
	if err != nil {
		panic(fmt.Sprintf("ptltcp: bad message from rank %d: %v", msg.srcRank, err))
	}
	body := msg.buf[ptl.HeaderSize:]
	switch hdr.Type {
	case ptl.TypeMatch, ptl.TypeRndv:
		peer, ok := m.peers[int(hdr.SrcRank)]
		if !ok {
			panic(fmt.Sprintf("ptltcp: message from unconnected rank %d", hdr.SrcRank))
		}
		m.pml.ReceiveFirst(th, m, peer, hdr, body)
	case ptl.TypeAck:
		m.pml.AckArrived(th, hdr, elan4.NilAddr)
	case ptl.TypeFrag:
		m.pml.ReceiveFrag(th, hdr, body)
	default:
		panic(fmt.Sprintf("ptltcp: unexpected %v", hdr.Type))
	}
}

// Finalize implements ptl.Module: nothing to drain below the PML, so it
// finalizes and closes.
func (m *Module) Finalize(th *simtime.Thread) {
	m.lc.Finalize()
	m.lc.Close()
}
