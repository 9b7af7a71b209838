package ptlelan4

import (
	"fmt"
	"slices"

	"qsmpi/internal/elan4"
	"qsmpi/internal/libelan"
	"qsmpi/internal/ptl"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// recStop is the poison completion record Finalize uses to unblock
// progress threads.
const recStop = 3

// Progress implements ptl.Module: one sweep of polling checks, each
// costing one HostEventPoll of CPU — the receive queue, the completion
// queue if there is one, then, under NoCQ, each outstanding descriptor's
// host event word. A check that finds something takes it at that instant:
// a queue yields its message and is checked again, a completed descriptor
// leaves the list and the sweep goes on with the one after it. The checks
// only read (ready), so the kernel runs a sweep on while it finds nothing
// (simtime.Thread.ComputeScan). In threaded modes the progress threads own
// the queues and Progress is a no-op.
func (m *Module) Progress(th *simtime.Thread) {
	if m.threads > 0 || m.lc.Stage() != ptl.StageActive {
		return
	}
	for i := 0; ; {
		n := m.queues() + len(m.outstanding)
		if i = th.ComputeScan(m.cfg.HostEventPoll, i, n, m.sweepCheck); i == n {
			return
		}
		m.take(th, i)
	}
}

// queues returns the number of queues a sweep checks before the
// descriptors: the receive queue and the completion queue, if any.
func (m *Module) queues() int {
	if m.compQ != nil {
		return 2
	}
	return 1
}

// ready is check i of a sweep: whether the queue or descriptor it polls
// has something. Another thread of the process may have shortened the
// descriptor list since the sweep began; a position past its end has
// nothing.
func (m *Module) ready(i int) bool {
	switch q := m.queues(); {
	case i == 0:
		return m.recvQ.Ready()
	case i < q:
		return m.compQ.Ready()
	case i-q < len(m.outstanding):
		return m.outstanding[i-q].word.Value() > 0
	}
	return false
}

// take handles what check i found, at the instant it found it. A queue's
// message goes back to its ring only once handleMsg has returned: the PML
// matches an eager body in place, computing while it still reads the
// slot's bytes. A descriptor leaves the list before its completion runs,
// so no other thread's sweep can see it again.
func (m *Module) take(th *simtime.Thread, i int) {
	switch q := m.queues(); {
	case i < q:
		queue := m.recvQ
		if i > 0 {
			queue = m.compQ
		}
		msg, _ := queue.Take()
		m.handleMsg(th, msg)
		queue.Release(msg)
	default:
		op := m.outstanding[i-q]
		m.outstanding = slices.Delete(m.outstanding, i-q, i-q+1)
		m.completeOp(th, op)
	}
}

// handleMsg dispatches one queue slot: either a local completion record
// or a wire message from a peer.
func (m *Module) handleMsg(th *simtime.Thread, qm elan4.QueuedMsg) {
	if kind, reqID, bytes, ok := decodeRecord(qm.Data); ok {
		m.handleRecord(th, kind, reqID, bytes)
		return
	}
	hdr, err := ptl.DecodeHeader(qm.Data)
	if err != nil {
		panic(fmt.Sprintf("ptlelan4: undecodable queue slot from VPID %d: %v", qm.SrcVPID, err))
	}
	body := qm.Data[ptl.HeaderSize:]
	switch hdr.Type {
	case ptl.TypeMatch, ptl.TypeRndv:
		m.pml.ReceiveFirst(th, m, m.peer(int(hdr.SrcRank)).peer, hdr, body)
	case ptl.TypeAck:
		if len(body) < 8 {
			panic("ptlelan4: ACK without memory descriptor")
		}
		m.pml.AckArrived(th, hdr, decodeE4(body))
	case ptl.TypeFin:
		// A FIN travels sender→receiver, so its message's source is the
		// wire-header's SrcRank.
		m.traceCorr(trace.PTLFinRx, hdr.RecvReq, int(hdr.SrcRank), int(hdr.Tag), int(hdr.FragLen),
			m.tracer.MsgID(int(hdr.SrcRank), hdr.SendReq))
		m.pml.RecvProgress(th, hdr.RecvReq, int(hdr.FragLen))
	case ptl.TypeFinAck:
		// Fig. 4: one control message acknowledges the rendezvous and
		// completes the whole send — we are the message's sender.
		m.traceCorr(trace.PTLFinAckRx, hdr.SendReq, int(hdr.SrcRank), int(hdr.Tag), int(hdr.MsgLen),
			m.tracer.MsgID(m.pml.Rank(), hdr.SendReq))
		m.pml.SendProgress(th, hdr.SendReq, int(hdr.MsgLen))
	default:
		panic(fmt.Sprintf("ptlelan4: unexpected %v in receive queue", hdr.Type))
	}
}

// handleRecord processes a shared-completion-queue record (Fig. 6).
func (m *Module) handleRecord(th *simtime.Thread, kind byte, reqID uint64, bytes int) {
	switch kind {
	case recStop:
		return
	case recPutDone:
		m.trace(trace.PTLCQRecord, reqID, -1, 0, bytes)
		m.issuePendingFin(th, kind, reqID)
		m.pml.SendProgress(th, reqID, bytes)
	case recGetDone:
		m.trace(trace.PTLCQRecord, reqID, -1, 0, bytes)
		m.issuePendingFin(th, kind, reqID)
		m.pml.RecvProgress(th, reqID, bytes)
	default:
		panic(fmt.Sprintf("ptlelan4: unknown completion record kind %d", kind))
	}
}

func (m *Module) completeOp(th *simtime.Thread, op *localOp) {
	if op.fin != nil {
		m.hostIssueFin(th, op.fin)
		op.fin = nil
	}
	switch op.kind {
	case recPutDone:
		m.pml.SendProgress(th, op.reqID, op.bytes)
	case recGetDone:
		m.pml.RecvProgress(th, op.reqID, op.bytes)
	}
	m.releaseOp(op)
}

// issuePendingFin sends a host-issued FIN if this op was created with
// ChainFin disabled (the NoChain ablation under a CQ mode).
func (m *Module) issuePendingFin(th *simtime.Thread, kind byte, reqID uint64) {
	key := finKey{kind: kind, reqID: reqID}
	fw, ok := m.pendingFins[key]
	if !ok {
		return
	}
	delete(m.pendingFins, key)
	m.hostIssueFin(th, fw)
}

func (m *Module) hostIssueFin(th *simtime.Thread, fw *finWork) {
	m.stats.HostIssuedFins++
	buf := m.acquireSendBuf(th)
	th.Compute(m.cfg.MemcpyStartup + simtime.BytesAt(len(fw.payload), m.cfg.MemcpyBandwidth))
	m.st.Ctx.SetCookie(fw.corr)
	m.st.QDMA(th, fw.dstVPID, qidRecv, fw.payload[:], buf, m.onSendError)
}

// ---- Asynchronous progress threads (§4.3, Table 1) ----

func (m *Module) spawnProgressThread(name string, q *libelan.Queue) {
	m.host.Spawn(name, func(th *simtime.Thread) {
		th.Proc().MarkDaemon()
		for !m.stopping {
			msg := q.Recv(th, libelan.Block)
			m.handleMsg(th, msg)
			q.Release(msg)
		}
	})
}

// BlockActivity implements pml.Blocker for the interrupt-measurement mode
// of Table 1: block the calling (application) thread on the receive
// queue's interrupt, which hears this rail alone and RDMA completions only
// under OneQueue (cluster.Spec.Validate holds the mode to that).
func (m *Module) BlockActivity(th *simtime.Thread) {
	raw := m.recvQ.Raw()
	if raw.Pending() > 0 {
		return
	}
	sig := simtime.NewSignal()
	raw.ArmInterrupt(sig)
	if raw.Pending() > 0 {
		raw.DisarmInterrupt()
		return
	}
	th.BlockOn(sig, m.cfg.ThreadWake)
}

// Finalize implements ptl.Module: stop progress threads (waking them with
// poison records), then finalize and close the component. The PML drains
// pending messages before calling this, honouring §4.1's requirement that
// connections finalize only after pending messages complete.
func (m *Module) Finalize(th *simtime.Thread) {
	m.stopping = true
	var stop [recSize]byte
	encodeRecord(stop[:], recStop, 0, 0)
	if m.threads >= 1 {
		m.st.QDMA(th, m.st.Ctx.VPID(), qidRecv, stop[:], nil, nil)
	}
	if m.threads == 2 {
		m.st.QDMA(th, m.st.Ctx.VPID(), qidComp, stop[:], nil, nil)
	}
	m.lc.Finalize()
	m.lc.Close()
}
