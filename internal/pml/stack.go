package pml

import (
	"fmt"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/datatype"
	"qsmpi/internal/model"
	"qsmpi/internal/obs"
	"qsmpi/internal/ptl"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// ProgressMode selects how blocking waits drive communication progress
// (the paper's §3 "dual-mode communication progress", plus the
// interrupt-only configuration measured in Table 1).
type ProgressMode int

const (
	// Polling: the blocked thread spins, polling every module.
	Polling ProgressMode = iota
	// InterruptWait: the blocked thread arms a NIC interrupt inside the
	// (single) PTL and sleeps. The paper notes this is not workable as a
	// general strategy — the process can't block inside one PTL when
	// several are active — but measures it to isolate interrupt cost.
	InterruptWait
	// Threaded: PTL progress threads drive completion; application
	// threads sleep on their requests and pay a thread handoff on wake.
	Threaded
)

// Blocker is implemented by modules that can block the calling thread
// until any network activity occurs (used by InterruptWait).
type Blocker interface {
	BlockActivity(th *simtime.Thread)
}

// LayerTrace instruments the §6.3 layering measurement: time from the PTL
// delivering a packet to the PML for matching until the PML hands the next
// packet to a PTL — "the communication time above the PTL layer". In a
// ping-pong the message is a token held by exactly one layer at a time, so
// this isolates the PML-layer cost.
type LayerTrace struct {
	deliverAt simtime.Time
	armed     bool

	// PMLTime accumulates time spent above the PTL; Count is the number
	// of deliver→send intervals measured.
	PMLTime simtime.Duration
	Count   int64
}

// Mean returns the average PML-layer cost per interval in microseconds.
func (t *LayerTrace) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return t.PMLTime.Micros() / float64(t.Count)
}

// Stats counts PML-layer activity.
type Stats struct {
	Sends          int64
	Recvs          int64
	EagerSends     int64
	RndvSends      int64
	UnexpectedMsgs int64
	ReorderedMsgs  int64
	MatchAttempts  int64

	// Matching-engine effectiveness: how matches were resolved and how
	// deep the unexpected queue ever got.
	BucketHits          int64 // resolved through a specific (src,tag) bucket
	WildcardHits        int64 // resolved through the wildcard path
	UnexpectedHighWater int64 // peak unexpected-queue depth

	// Progress-engine activity: completed-request probes (MPI_Test
	// traffic) and progress sweeps driven through this stack.
	Tests         int64
	ProgressPolls int64

	// Frags counts the free list of queued first fragments: Gets == Puts
	// once none is unexpected or parked out of sequence.
	Frags bufpool.ListStats
	// SendStates/RecvStates: Gets − Puts is the requests nobody waited on.
	SendStates bufpool.ListStats
	RecvStates bufpool.ListStats
}

// Stack is one process's PML: the device-neutral message management layer
// that fragments, schedules, matches and reassembles messages across the
// available PTL modules.
type Stack struct {
	k    *simtime.Kernel
	sc   simtime.Sched
	host *simtime.Host
	cfg  model.Config
	eng  *datatype.Engine
	rank int

	// mods reach every peer in peers: a peer is reachable through every
	// module of the stack or not at all.
	mods  []ptl.Module
	peers map[int]*ptl.Peer

	// sendReqs holds the sends in flight: a request leaves when it
	// completes, as a receive leaves recvReqs.
	sendReqs map[uint64]*sendState
	recvReqs map[uint64]*recvState
	nextID   uint64

	comms map[matchKey]*commState

	// activity is bumped by transports whenever anything arrives or
	// completes; polling waits block on it between progress sweeps.
	activity *simtime.Counter
	mode     ProgressMode
	blocker  Blocker

	// Trace, when non-nil, records PML-layer residence time (§6.3).
	Trace *LayerTrace
	// Tracer, when non-nil, records per-message protocol timelines.
	Tracer *trace.Recorder
	// Watchdog, when non-nil, is notified whenever this rank's request
	// machinery makes progress; it flags ranks that stop advancing while
	// requests are pending.
	Watchdog *obs.Watchdog
	// SendLatency/RecvLatency, when non-nil, observe post→completion
	// latency per request. Nil-checked on the completion path only.
	SendLatency *obs.Histogram
	RecvLatency *obs.Histogram

	// pool recycles pack/unpack staging and unexpected-message copies;
	// frags, sendStates and recvStates recycle fragments and request state.
	pool       *bufpool.Pool
	frags      bufpool.FreeList[firstFrag]
	sendStates bufpool.FreeList[sendState]
	recvStates bufpool.FreeList[recvState]

	selfPeer *ptl.Peer

	stats Stats

	// hooks are schedule-advancement callbacks (nonblocking collectives)
	// run at the end of every progress sweep; inHooks guards against a
	// sweep nested inside a hook's own sub-operations re-entering them.
	hooks   []ProgressHook
	inHooks bool

	// Duty-cycle accounting (DESIGN.md §8.3): virtual time spent inside
	// progress sweeps and parked in blocking waits. progressDepth keeps
	// nested sweeps (a wait loop polling Progress) from double-counting.
	progressDepth int
	progressTime  simtime.Duration
	idleTime      simtime.Duration
}

// ProgressHook is a schedule-advancement callback driven from the PML
// progress path: nonblocking collectives register one per outstanding
// schedule, and every progress sweep gives it a chance to retire phases
// whose point-to-point sub-requests have completed. A hook returns false
// once its schedule has finished, which removes it.
type ProgressHook func(th *simtime.Thread) bool

// NewStack creates the PML for one process. dtp selects the datatype copy
// engine (true) or the generic-memcpy substitution the paper uses for
// analysis (false).
func NewStack(k *simtime.Kernel, host *simtime.Host, cfg model.Config, rank int, dtp bool, mode ProgressMode) *Stack {
	return &Stack{
		k: k, sc: host.Sched(), host: host, cfg: cfg, rank: rank,
		eng:      datatype.NewEngine(cfg, dtp),
		peers:    make(map[int]*ptl.Peer),
		sendReqs: make(map[uint64]*sendState),
		recvReqs: make(map[uint64]*recvState),
		comms:    make(map[matchKey]*commState),
		activity: simtime.NewCounter(),
		mode:     mode,
		nextID:   1,
		pool:     bufpool.New(),
	}
}

// Rank returns this process's rank.
func (s *Stack) Rank() int { return s.rank }

// Engine returns the datatype copy engine.
func (s *Stack) Engine() *datatype.Engine { return s.eng }

// Activity returns the counter transports bump on arrivals/completions.
func (s *Stack) Activity() *simtime.Counter { return s.activity }

// Mode returns the progress mode.
func (s *Stack) Mode() ProgressMode { return s.mode }

// SetBlocker installs the module used for InterruptWait blocking.
func (s *Stack) SetBlocker(b Blocker) { s.blocker = b }

// Stats returns a copy of the PML counters.
func (s *Stack) Stats() Stats {
	st := s.stats
	st.Frags = s.frags.Stats()
	st.SendStates = s.sendStates.Stats()
	st.RecvStates = s.recvStates.Stats()
	return st
}

// NoteTest counts one MPI_Test-style completion probe against this stack.
func (s *Stack) NoteTest() { s.stats.Tests++ }

// ProgressTime returns the virtual time this rank has spent inside
// progress sweeps (module polling plus hook advancement) — the "progress"
// share of the duty-cycle split progress / idle / compute (§8.3).
func (s *Stack) ProgressTime() simtime.Duration { return s.progressTime }

// IdleTime returns the virtual time this rank has spent parked in
// blocking waits, net of the progress sweeps run while waiting — the
// "idle" share of the duty-cycle split.
func (s *Stack) IdleTime() simtime.Duration { return s.idleTime }

// DutyPermille returns the cumulative progress duty cycle as of now: the
// per-mille of elapsed virtual time spent inside progress sweeps. It is
// the value behind the ProgressDuty trace samples and the telemetry
// sampler's duty gauge.
func (s *Stack) DutyPermille(now simtime.Time) int {
	if us := now.Micros(); us > 0 {
		return int(1000 * s.progressTime.Micros() / us)
	}
	return 0
}

// AddProgressHook registers a schedule-advancement hook. Hooks run on
// every progress sweep until they return false; registration order is
// preserved, so concurrently outstanding schedules advance
// deterministically.
func (s *Stack) AddProgressHook(h ProgressHook) {
	s.hooks = append(s.hooks, h)
}

// PoolStats returns a copy of the staging buffer-pool counters.
func (s *Stack) PoolStats() bufpool.Stats { return s.pool.Stats() }

// AddModule appends a PTL module to the stack, in scheduling priority
// order (first module gets first fragments).
func (s *Stack) AddModule(m ptl.Module) { s.mods = append(s.mods, m) }

// Modules returns the stack's modules.
func (s *Stack) Modules() []ptl.Module { return s.mods }

// Peer returns the peer object for a connected rank.
func (s *Stack) Peer(rank int) (*ptl.Peer, bool) {
	p, ok := s.peers[rank]
	return p, ok
}

// AddPeer makes a peer reachable through every module of the stack.
// Modules perform their connection setup in AddProc; this is the
// dynamic-join entry point as well as the MPI_Init path.
func (s *Stack) AddPeer(th *simtime.Thread, peer *ptl.Peer) error {
	if len(s.mods) == 0 {
		return fmt.Errorf("pml: peer %d added with no modules", peer.Rank)
	}
	for _, m := range s.mods {
		if err := m.AddProc(th, peer); err != nil {
			return fmt.Errorf("pml: add peer %d via %s: %w", peer.Rank, m.Name(), err)
		}
	}
	s.peers[peer.Rank] = peer
	return nil
}

// DelPeer disconnects a peer from every module (dynamic disjoin). Pending
// traffic must have drained; transports will surface errors otherwise.
func (s *Stack) DelPeer(th *simtime.Thread, rank int) {
	peer := s.peers[rank]
	if peer == nil {
		return
	}
	for _, m := range s.mods {
		m.DelProc(th, peer)
	}
	delete(s.peers, rank)
	// Reset per-connection ordering state: a future process under the
	// same rank (restart/respawn) starts a fresh sequence space, and
	// stale reorder entries would otherwise park its traffic forever.
	for _, cs := range s.comms {
		delete(cs.expected, rank)
		delete(cs.reorder, rank)
		delete(cs.seqOut, rank)
	}
}

func (s *Stack) comm(id matchKey) *commState {
	cs, ok := s.comms[id]
	if !ok {
		cs = newCommState()
		s.comms[id] = cs
	}
	return cs
}

// ---- Send path ----

// Send starts a nonblocking typed send of dt's data from buf to rank dst.
// Sends to the process's own rank short-circuit through a loopback path
// (the role of Open MPI's "self" component): the message is matched
// locally and copied, never touching a network.
func (s *Stack) Send(th *simtime.Thread, dst, tag int, comm uint16, buf []byte, dt *datatype.Datatype) *SendReq {
	h := &SendReq{}
	s.send(th, h, dst, tag, comm, buf, dt, false)
	return h
}

// SendSync is the MPI_Ssend flavour: the request completes only after the
// receiver has matched the message. Implementation: force the rendezvous
// protocol regardless of size, so completion requires the ACK/FIN_ACK
// that only a match can produce.
func (s *Stack) SendSync(th *simtime.Thread, dst, tag int, comm uint16, buf []byte, dt *datatype.Datatype) *SendReq {
	h := &SendReq{}
	s.send(th, h, dst, tag, comm, buf, dt, true)
	return h
}

// send and recv never keep h: Send, SendSync and Recv inline, so a caller
// that only waits on the handle keeps it in its own frame.
func (s *Stack) send(th *simtime.Thread, h *SendReq, dst, tag int, comm uint16, buf []byte, dt *datatype.Datatype, sync bool) {
	th.Compute(s.cfg.PMLRequestCost + s.eng.SetupCost())
	if s.peers[dst] == nil && dst != s.rank {
		panic(fmt.Sprintf("pml: rank %d unreachable from %d", dst, s.rank))
	}
	req := s.sendStates.Take()
	*req = sendState{
		id: s.nextID, stack: s, dst: dst, tag: tag, comm: comm,
		dtype: dt, user: buf, n: dt.Size(), postedAt: s.sc.Now(),
	}
	s.nextID++
	s.sendReqs[req.id] = req
	s.stats.Sends++
	h.st, h.id = req, req.id
	if dst == s.rank {
		s.sendSelf(th, req)
		return
	}
	n := req.n
	s.noteProgress()
	s.traceCorr(trace.SendPosted, req.id, dst, tag, n, s.Tracer.MsgID(s.rank, req.id))

	// Contiguous data is used in place (zero copy); non-contiguous data
	// is packed once into pooled scratch, recycled on completion.
	if dt.Contig() {
		req.packed = buf[:n]
	} else {
		req.packed = s.pool.Get(n)
		s.eng.Pack(th, dt, req.packed, buf, 0, n)
	}

	th.Compute(s.cfg.PMLScheduleCost)
	mod := s.mods[0]
	req.sd.Mem = ptl.MemDesc{Buf: req.packed, E4: mod.RegisterMem(req.packed)}
	req.memMod = mod

	cs := s.comm(comm)
	seq := cs.seqOut[dst]
	cs.seqOut[dst] = seq + 1

	hdr := ptl.Header{
		CommID: comm, SrcRank: int32(s.rank), DstRank: int32(dst),
		Tag: int32(tag), SeqNum: seq, MsgLen: uint64(n),
		SendReq: req.id, SrcAddr: uint64(req.sd.Mem.E4),
	}
	if n <= mod.EagerLimit() && !sync {
		hdr.Type = ptl.TypeMatch
		hdr.FragLen = uint32(n)
		req.inlineLen = n
		s.stats.EagerSends++
	} else {
		hdr.Type = ptl.TypeRndv
		inline := 0
		if mod.InlineRndv() {
			inline = mod.EagerLimit()
			if inline > n {
				inline = n
			}
		}
		hdr.FragLen = uint32(inline)
		req.inlineLen = inline
		s.stats.RndvSends++
	}
	req.sd.Hdr = hdr
	if s.Trace != nil && s.Trace.armed {
		s.Trace.PMLTime += s.sc.Now().Sub(s.Trace.deliverAt)
		s.Trace.Count++
		s.Trace.armed = false
	}
	mod.SendFirst(th, s.peers[dst], &req.sd)
}

// sendSelf is the loopback path: match locally, copy once.
func (s *Stack) sendSelf(th *simtime.Thread, req *sendState) {
	n, dt, buf := req.n, req.dtype, req.user
	if dt.Contig() {
		req.packed = buf[:n]
	} else {
		req.packed = s.pool.Get(n)
		s.eng.Pack(th, dt, req.packed, buf, 0, n)
	}
	cs := s.comm(req.comm)
	seq := cs.seqOut[s.rank]
	cs.seqOut[s.rank] = seq + 1
	hdr := ptl.Header{
		Type: ptl.TypeMatch, CommID: req.comm,
		SrcRank: int32(s.rank), DstRank: int32(s.rank), Tag: int32(req.tag),
		SeqNum: seq, FragLen: uint32(n), MsgLen: uint64(n), SendReq: req.id,
	}
	if s.selfPeer == nil {
		s.selfPeer = &ptl.Peer{Rank: s.rank, Name: "self"}
	}
	s.ReceiveFirst(th, nil, s.selfPeer, hdr, req.packed)
	s.SendProgress(th, req.id, n)
}

// AckArrived implements ptl.PML: a rendezvous ACK reached the sender.
func (s *Stack) AckArrived(th *simtime.Thread, hdr ptl.Header, remote ptl.RemoteMem) {
	s.activity.Add(1)
	req := s.sendReqs[hdr.SendReq]
	if req == nil || req.acked {
		return
	}
	req.acked = true
	s.noteProgress()
	s.traceCorr(trace.AckArrived, req.id, req.dst, req.tag, req.n, s.Tracer.MsgID(s.rank, req.id))
	sd := &req.sd
	sd.Hdr.RecvReq = hdr.RecvReq

	if req.inlineLen > 0 {
		// The data inlined with the rendezvous is now known delivered
		// (ptl_send_progress for the first packet, per Fig. 2).
		s.SendProgress(th, req.id, req.inlineLen)
	}
	rest := req.n - req.inlineLen
	if rest <= 0 {
		return
	}
	// Schedule the remainder across the modules reaching this peer,
	// weighted by bandwidth (the second scheduling heuristic of §2.2).
	th.Compute(s.cfg.PMLScheduleCost)
	peer := s.peers[req.dst]
	usable := func(m ptl.Module) bool { return m.SupportsPut() || m.MaxFragSize() > 0 }
	lastUsable := -1
	var wsum float64
	for i, m := range s.mods {
		if usable(m) {
			lastUsable = i
			wsum += m.Weight()
		}
	}
	if lastUsable < 0 {
		panic("pml: no module can carry the message remainder")
	}
	off := req.inlineLen
	remaining := rest
	for i, m := range s.mods[:lastUsable+1] {
		if !usable(m) {
			continue
		}
		var ln int
		if i == lastUsable {
			ln = remaining
		} else {
			ln = int(float64(rest) * m.Weight() / wsum)
			if ln > remaining {
				ln = remaining
			}
		}
		if ln <= 0 {
			continue
		}
		if m.SupportsPut() {
			m.Put(th, peer, sd, remote, off, ln, true)
		} else {
			// In-band fragments, chunked at the module's limit.
			max := m.MaxFragSize()
			for o := off; o < off+ln; o += max {
				c := off + ln - o
				if c > max {
					c = max
				}
				m.SendFrag(th, peer, sd, o, c)
			}
		}
		off += ln
		remaining -= ln
	}
}

// SendProgress implements ptl.PML: bytes of a send were delivered or
// safely buffered.
func (s *Stack) SendProgress(th *simtime.Thread, sendReq uint64, bytes int) {
	s.activity.Add(1)
	req := s.sendReqs[sendReq]
	if req == nil {
		return
	}
	req.progressed += bytes
	if req.progressed > req.n {
		panic(fmt.Sprintf("pml: send %d progressed %d of %d bytes", sendReq, req.progressed, req.n))
	}
	s.noteProgress()
	s.traceCorr(trace.SendProgressed, req.id, req.dst, req.tag, bytes, s.Tracer.MsgID(s.rank, req.id))
	if req.progressed == req.n && !req.done.Fired() {
		delete(s.sendReqs, req.id)
		if req.memMod != nil {
			// Every byte is delivered: no RDMA can name the buffer again.
			req.memMod.UnregisterMem(req.sd.Mem.E4)
		}
		if !req.dtype.Contig() && req.packed != nil {
			// The packed scratch was fully transmitted; recycle it.
			s.pool.Put(req.packed)
			req.packed = nil
		}
		s.traceCorr(trace.SendCompleted, req.id, req.dst, req.tag, req.n, s.Tracer.MsgID(s.rank, req.id))
		if s.SendLatency != nil {
			s.SendLatency.Observe(s.sc.Now().Sub(req.postedAt))
		}
		req.done.Fire()
	}
}

// ---- Receive path ----

// Recv posts a nonblocking typed receive. src may be AnySource, tag may
// be AnyTag.
func (s *Stack) Recv(th *simtime.Thread, src, tag int, comm uint16, buf []byte, dt *datatype.Datatype) *RecvReq {
	h := &RecvReq{}
	s.recv(th, h, src, tag, comm, buf, dt)
	return h
}

func (s *Stack) recv(th *simtime.Thread, h *RecvReq, src, tag int, comm uint16, buf []byte, dt *datatype.Datatype) {
	th.Compute(s.cfg.PMLRequestCost + s.eng.SetupCost())
	req := s.recvStates.Take()
	*req = recvState{
		id: s.nextID, stack: s, src: src, tag: tag, comm: comm,
		dtype: dt, user: buf, postedAt: s.sc.Now(),
	}
	s.nextID++
	s.recvReqs[req.id] = req
	s.stats.Recvs++
	h.st, h.id = req, req.id
	s.noteProgress()
	s.trace(trace.RecvPosted, req.id, src, tag, dt.Size())

	cs := s.comm(comm)
	th.Compute(s.cfg.PMLMatchCost)
	s.stats.MatchAttempts++
	if ff := cs.takeUnexpected(src, tag); ff != nil {
		if src == AnySource || tag == AnyTag {
			s.stats.WildcardHits++
		} else {
			s.stats.BucketHits++
		}
		s.consumeMatch(th, req, ff)
		s.releaseFrag(ff)
		return
	}
	cs.postRecv(req)
}

// ReceiveFirst implements ptl.PML: a MATCH/RNDV fragment arrived and needs
// matching. data is only valid during the call.
func (s *Stack) ReceiveFirst(th *simtime.Thread, mod ptl.Module, src *ptl.Peer, hdr ptl.Header, data []byte) {
	s.activity.Add(1)
	if s.Trace != nil {
		s.Trace.deliverAt = s.sc.Now()
		s.Trace.armed = true
	}
	s.noteProgress()
	s.traceCorr(trace.FirstArrived, hdr.SendReq, src.Rank, int(hdr.Tag), int(hdr.MsgLen),
		s.Tracer.MsgID(src.Rank, hdr.SendReq))
	cs := s.comm(hdr.CommID)
	exp, ok := cs.expected[src.Rank]
	if !ok {
		cs.expected[src.Rank] = 0
	}
	if hdr.SeqNum != exp {
		// Out of sequence (e.g. a NACKed-and-retried QDMA overtaken by a
		// later message): park until its turn, preserving MPI ordering.
		s.stats.ReorderedMsgs++
		cs.reorder[src.Rank] = append(cs.reorder[src.Rank],
			s.queued(firstFrag{mod: mod, peer: src, hdr: hdr, data: data}))
		return
	}
	// The fragment is matched from this frame: only one that finds no
	// receive posted is copied to the heap.
	s.admitFirst(th, cs, &firstFrag{mod: mod, peer: src, hdr: hdr, data: data}, nil)
	// Drain any parked successors that are now in sequence.
	for {
		next := -1
		exp = cs.expected[src.Rank]
		for i, ff := range cs.reorder[src.Rank] {
			if ff.hdr.SeqNum == exp {
				next = i
				break
			}
		}
		if next < 0 {
			return
		}
		q := cs.reorder[src.Rank][next]
		cs.reorder[src.Rank] = append(cs.reorder[src.Rank][:next], cs.reorder[src.Rank][next+1:]...)
		s.admitFirst(th, cs, q, q)
	}
}

// queued returns ff as a fragment that can wait: a firstFrag from the free
// list, the transient wire data copied into a pool-owned buffer before the
// transport reclaims it.
func (s *Stack) queued(ff firstFrag) *firstFrag {
	q := s.frags.Take()
	*q = ff
	q.data = s.pool.Get(len(ff.data))
	copy(q.data, ff.data)
	return q
}

// releaseFrag recycles a queued fragment and its data once the match has
// consumed them.
func (s *Stack) releaseFrag(q *firstFrag) {
	s.pool.Put(q.data)
	s.frags.Put(q, firstFrag{})
}

// admitFirst matches an in-sequence first fragment against the posted
// receives, or stores it as unexpected. q is ff where ff is a queued
// fragment (one from the reorder buffer) and nil where it is the caller's
// local: ff itself is never kept, so a local one stays on the stack.
func (s *Stack) admitFirst(th *simtime.Thread, cs *commState, ff, q *firstFrag) {
	cs.expected[ff.peer.Rank]++
	th.Compute(s.cfg.PMLMatchCost)
	s.stats.MatchAttempts++
	if req, wild := cs.takePosted(&ff.hdr); req != nil {
		if wild {
			s.stats.WildcardHits++
		} else {
			s.stats.BucketHits++
		}
		s.consumeMatch(th, req, ff)
		if q != nil {
			s.releaseFrag(q)
		}
		return
	}
	s.stats.UnexpectedMsgs++
	s.traceCorr(trace.Unexpected, ff.hdr.SendReq, ff.peer.Rank, int(ff.hdr.Tag), int(ff.hdr.MsgLen),
		s.Tracer.MsgID(ff.peer.Rank, ff.hdr.SendReq))
	if q == nil {
		q = s.queued(*ff)
	}
	cs.addUnexpected(q)
	if int64(cs.unexpCount) > s.stats.UnexpectedHighWater {
		s.stats.UnexpectedHighWater = int64(cs.unexpCount)
	}
}

// consumeMatch binds a matched (request, fragment) pair: eager data is
// copied out; rendezvous messages are handed to the module's scheme
// (ptl_matched in the paper's flow).
func (s *Stack) consumeMatch(th *simtime.Thread, req *recvState, ff *firstFrag) {
	req.matched = true
	// The fragment names the sender's request, so the match is the moment
	// the receive request binds to its global message identity.
	req.corr = s.Tracer.MsgID(ff.peer.Rank, ff.hdr.SendReq)
	s.traceCorr(trace.Matched, req.id, ff.peer.Rank, int(ff.hdr.Tag), int(ff.hdr.MsgLen), req.corr)
	req.msgLen = int(ff.hdr.MsgLen)
	req.status = Status{Source: int(ff.hdr.SrcRank), Tag: int(ff.hdr.Tag), Len: req.msgLen}
	if req.msgLen > req.dtype.Size() {
		panic(fmt.Sprintf("pml: message of %d bytes truncates receive of %d", req.msgLen, req.dtype.Size()))
	}

	if ff.hdr.Type == ptl.TypeMatch {
		// Whole message inline: unpack straight to the user buffer.
		if req.msgLen > 0 {
			s.eng.Unpack(th, req.dtype, req.user, ff.data[:req.msgLen], 0, req.msgLen)
		}
		s.RecvProgress(th, req.id, req.msgLen)
		if req.msgLen == 0 {
			s.finishRecv(th, req)
		}
		return
	}

	// Rendezvous: prepare the landing area and run the module's scheme.
	if req.dtype.Contig() {
		req.staging = req.user[:req.msgLen]
	} else {
		req.staging = s.pool.Get(req.msgLen)
	}
	req.mem = ptl.MemDesc{Buf: req.staging, E4: ff.mod.RegisterMem(req.staging)}
	req.memMod = ff.mod
	inline := int(ff.hdr.FragLen)
	if inline > 0 {
		// The copy the "no-inline" optimization avoids: inlined
		// rendezvous data must be copied from the bounce buffer while
		// RDMA would have placed it directly.
		th.Compute(s.eng.CopyCost(inline, 1))
		copy(req.staging[:inline], ff.data[:inline])
	}
	ff.mod.Matched(th, ff.peer, ptl.RecvDesc{Hdr: ff.hdr, Mem: req.mem, ReqID: req.id})
	if inline > 0 {
		s.RecvProgress(th, req.id, inline)
	}
}

// ReceiveFrag implements ptl.PML: an in-band continuation fragment.
func (s *Stack) ReceiveFrag(th *simtime.Thread, hdr ptl.Header, data []byte) {
	s.activity.Add(1)
	req := s.recvReqs[hdr.RecvReq]
	if req == nil || !req.matched {
		panic(fmt.Sprintf("pml: FRAG for unknown receive %d", hdr.RecvReq))
	}
	ln := int(hdr.FragLen)
	off := int(hdr.Offset)
	th.Compute(s.eng.CopyCost(ln, 1))
	copy(req.staging[off:off+ln], data[:ln])
	s.RecvProgress(th, req.id, ln)
}

// RecvProgress implements ptl.PML: bytes landed for a receive request.
func (s *Stack) RecvProgress(th *simtime.Thread, recvReq uint64, bytes int) {
	s.activity.Add(1)
	req := s.recvReqs[recvReq]
	if req == nil {
		return
	}
	req.got += bytes
	if req.got > req.msgLen {
		panic(fmt.Sprintf("pml: recv %d got %d of %d bytes", recvReq, req.got, req.msgLen))
	}
	s.noteProgress()
	s.traceCorr(trace.RecvProgressed, req.id, req.status.Source, req.status.Tag, bytes, req.corr)
	if req.got == req.msgLen && req.matched {
		s.finishRecv(th, req)
	}
}

func (s *Stack) finishRecv(th *simtime.Thread, req *recvState) {
	if req.done.Fired() {
		return
	}
	if req.memMod != nil {
		req.memMod.UnregisterMem(req.mem.E4)
	}
	if req.staging != nil && !req.dtype.Contig() {
		// Scatter the packed staging buffer into the typed user layout,
		// then recycle the scratch.
		s.eng.Unpack(th, req.dtype, req.user, req.staging, 0, req.msgLen)
		s.pool.Put(req.staging)
		req.staging = nil
	}
	delete(s.recvReqs, req.id)
	s.traceCorr(trace.RecvCompleted, req.id, req.status.Source, req.status.Tag, req.msgLen, req.corr)
	if s.RecvLatency != nil {
		s.RecvLatency.Observe(s.sc.Now().Sub(req.postedAt))
	}
	req.done.Fire()
}

// trace records a protocol event if a Tracer is attached.
func (s *Stack) trace(kind trace.Kind, reqID uint64, peer, tag, bytes int) {
	s.traceCorr(kind, reqID, peer, tag, bytes, 0)
}

// traceCorr records a protocol event carrying a cross-rank message
// correlator (trace.Event.Corr).
func (s *Stack) traceCorr(kind trace.Kind, reqID uint64, peer, tag, bytes int, corr uint64) {
	if s.Tracer == nil {
		return
	}
	s.Tracer.Record(trace.Event{
		At: s.sc.Now(), Rank: s.rank, Kind: kind,
		ReqID: reqID, Peer: peer, Tag: tag, Bytes: bytes, Corr: corr,
	})
}

// noteProgress tells the watchdog this rank's event stream advanced.
func (s *Stack) noteProgress() {
	if s.Watchdog != nil {
		s.Watchdog.Note(s.rank, s.sc.Now())
	}
}

// UnexpectedDepth reports the current number of queued unexpected
// messages across all communicators (a watchdog stall-diagnostic probe).
func (s *Stack) UnexpectedDepth() int {
	n := 0
	for _, cs := range s.comms {
		n += cs.unexpCount
	}
	return n
}

// ---- Probe ----

// Iprobe checks for a matchable unexpected message without receiving it.
func (s *Stack) Iprobe(th *simtime.Thread, src, tag int, comm uint16) (Status, bool) {
	s.Progress(th)
	return s.peek(th, src, tag, comm)
}

// peek pays one match against the unexpected queue.
func (s *Stack) peek(th *simtime.Thread, src, tag int, comm uint16) (Status, bool) {
	th.Compute(s.cfg.PMLMatchCost)
	if ff, _ := s.comm(comm).peekUnexpected(src, tag); ff != nil {
		return Status{Source: int(ff.hdr.SrcRank), Tag: int(ff.hdr.Tag), Len: int(ff.hdr.MsgLen)}, true
	}
	return Status{}, false
}

// Probe blocks until a matchable message is available. A message reaches
// the unexpected queue only in a sweep and a peek costs a match, so Block's
// ask before each sweep answers false without looking; the ask after it
// peeks.
func (s *Stack) Probe(th *simtime.Thread, src, tag int, comm uint16) Status {
	var st Status
	swept := false
	s.Block(th, func() bool {
		if swept = !swept; swept {
			return false
		}
		var ok bool
		st, ok = s.peek(th, src, tag, comm)
		return ok
	}, true)
	return st
}

// ---- Progress engine ----

// Progress polls every module once, then advances any registered
// schedule hooks.
func (s *Stack) Progress(th *simtime.Thread) {
	t0 := s.sc.Now()
	s.progressDepth++
	s.stats.ProgressPolls++
	for _, m := range s.mods {
		m.Progress(th)
	}
	s.runHooks(th)
	s.progressDepth--
	if s.progressDepth == 0 {
		s.progressTime += s.sc.Now().Sub(t0)
	}
}

// runHooks advances every registered schedule hook once. A hook's
// sub-operations may park the thread mid-advance (request posting charges
// CPU), during which another thread's sweep must not re-enter the hooks;
// inHooks makes the advancement mutually exclusive. Hooks registered
// while the loop runs are picked up in the same pass (len is
// re-evaluated), and finished hooks are compacted out in place.
func (s *Stack) runHooks(th *simtime.Thread) {
	if s.inHooks || len(s.hooks) == 0 {
		return
	}
	s.inHooks = true
	finished := false
	for i := 0; i < len(s.hooks); i++ {
		h := s.hooks[i]
		if h == nil {
			continue
		}
		if !h(th) {
			s.hooks[i] = nil
			finished = true
		}
	}
	if finished {
		live := s.hooks[:0]
		for _, h := range s.hooks {
			if h != nil {
				live = append(live, h)
			}
		}
		s.hooks = live
	}
	s.inHooks = false
}

// waitOn blocks until a request's sig fires. Under Threaded progress the
// progress threads inside the modules complete requests: the application
// thread sleeps and pays the handoff on wake. In every other mode the
// waiting thread drives progress itself.
func (s *Stack) waitOn(th *simtime.Thread, sig *simtime.Signal) {
	if s.mode != Threaded {
		s.Block(th, sig.Fired, false)
		return
	}
	defer s.bookIdle(s.sc.Now(), s.progressTime)
	if !sig.Fired() {
		th.BlockOn(sig, s.cfg.ThreadHandoff)
	}
}

// bookIdle, deferred on entry to a wait with the clock and the progress
// time as they stood, books what the wait did not spend inside progress
// sweeps as idle.
func (s *Stack) bookIdle(t0 simtime.Time, p0 simtime.Duration) {
	s.idleTime += s.sc.Now().Sub(t0) - (s.progressTime - p0)
}

// Block is the stack's one wait loop: it returns once done reports true,
// asking it before and after each progress sweep and otherwise waiting for
// the activity word to move. The waiting thread sweeps in every progress
// mode; a caller waiting on a *schedule* needs that even under Threaded
// progress, because module threads only complete point-to-point
// sub-requests and the schedule advances in the hook pass of Progress.
//
// A wait that is not bare books its time as idle, blocks through the
// Blocker under InterruptWait and pays the thread handoff on each wake
// under Threaded progress (§3), as a request wait does. A bare wait does
// none of the three: Probe, Finalize, mpi.Waitany and mpi.Win.Fence block
// on the bare activity word even under InterruptWait, and so never pay
// the interrupt latency a request wait pays there. That is a difference in
// what is modelled, known and left alone: making them not bare would move
// simulated time.
//
// done may charge CPU (Probe's does). The word is read after the second
// ask, so a bump that lands during the sweep or that ask is waited past:
// the lost wakeup that two rails, or two schedules in flight, can turn
// into a deadlock. Reading it before the sweep closes it, and moves
// simulated time.
func (s *Stack) Block(th *simtime.Thread, done func() bool, bare bool) {
	if !bare {
		defer s.bookIdle(s.sc.Now(), s.progressTime)
	}
	for !done() {
		s.Progress(th)
		if done() {
			return
		}
		v := s.activity.Value()
		if !bare && s.mode == InterruptWait && s.blocker != nil {
			s.blocker.BlockActivity(th)
			continue
		}
		s.activity.WaitFor(th.Proc(), v+1)
		if !bare && s.mode == Threaded {
			th.Compute(s.cfg.ThreadHandoff)
		}
	}
}

// PendingSends returns in-flight send requests (used by finalization).
func (s *Stack) PendingSends() int { return len(s.sendReqs) }

// PendingRecvs returns incomplete receive requests.
func (s *Stack) PendingRecvs() int { return len(s.recvReqs) }

// Finalize drains pending sends, then finalizes every module (stage four
// of the lifecycle: "an existing connection can go through its
// finalization stage only when the involving processes have completed all
// the pending messages").
func (s *Stack) Finalize(th *simtime.Thread) {
	s.Block(th, func() bool { return s.PendingSends() == 0 }, true)
	for _, m := range s.mods {
		m.Finalize(th)
	}
}
