package ptlelan4

import (
	"encoding/binary"

	"qsmpi/internal/elan4"
	"qsmpi/internal/libelan"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Hardware-collective support: QsNet's switch-replicated broadcast carries
// MPI_Bcast when the group is static ([33] in the paper builds exactly
// this for LA-MPI). §4.1 notes the constraint this file enforces by
// construction: the member set is fixed for the duration of the operation
// and every member was present when connections were established —
// dynamically joined processes fall back to the software tree (the
// qsmpi/mpi layer disables the hardware path once the world has grown).

// chunkHeader is the per-chunk framing: the byte offset within the
// broadcast payload, so link-level retries that reorder chunks cannot
// corrupt reassembly.
const chunkHeader = 8

// HWBcast implements the mpi.HWColl hardware broadcast: root pushes the
// payload as switch-replicated QDMA chunks, every other member consumes
// them from the dedicated collective queue. Returns false when the module
// cannot serve the group (unknown peer), in which case the caller must use
// its software fallback. data must be the full payload on every member.
func (m *Module) HWBcast(th *simtime.Thread, root int, members []int, me int, data []byte) bool {
	if m.collQ == nil {
		return false
	}
	if len(data) == 0 || len(members) < 2 {
		return true
	}
	// The serve/fallback decision must be rank-uniform — every member takes
	// the same branch or the group deadlocks (root falls back while a
	// non-root blocks on the collective queue). So every rank, root or not,
	// requires the whole group to be connected; under a restricted bringup
	// topology (cluster.Spec.Peers) all ranks refuse together.
	var vpids []int // the root's destinations
	for _, r := range members {
		pi, ok := m.peers[r]
		if r != me && !ok {
			return false
		}
		if r != me && me == root {
			vpids = append(vpids, pi.vpid)
		}
	}
	if me == root {
		maxChunk := m.cfg.QDMAMaxPayload - chunkHeader
		for off := 0; off < len(data); off += maxChunk {
			ln := len(data) - off
			if ln > maxChunk {
				ln = maxChunk
			}
			payload := make([]byte, chunkHeader+ln)
			binary.LittleEndian.PutUint64(payload, uint64(off))
			copy(payload[chunkHeader:], data[off:off+ln])
			m.st.BcastQDMA(th, vpids, qidColl, payload, nil, m.onSendError)
		}
		return true
	}
	// Non-root: reassemble by offset until every byte has landed,
	// filtering chunks by root (a previous or next collective's chunks
	// from another root may interleave; park them).
	rootVPID := m.peers[root]
	got := 0
	for got < len(data) {
		msg := m.nextCollChunk(th, rootVPID.vpid)
		off := int(binary.LittleEndian.Uint64(msg.Data))
		body := msg.Data[chunkHeader:]
		copy(data[off:off+len(body)], body)
		got += len(body)
	}
	return true
}

// nextCollChunk returns the next collective chunk from the given source,
// parking chunks from other sources for their own collectives.
func (m *Module) nextCollChunk(th *simtime.Thread, srcVPID int) elan4.QueuedMsg {
	for i, p := range m.collPending {
		if p.SrcVPID == srcVPID {
			m.collPending = append(m.collPending[:i], m.collPending[i+1:]...)
			return p
		}
	}
	for {
		msg := m.collQ.Recv(th, libelan.Poll)
		if msg.SrcVPID == srcVPID {
			return msg
		}
		m.collPending = append(m.collPending, msg)
	}
}

// NIC-resident combine trees (Yu/Buntinas/Graham/Panda's NIC-based
// collective protocol): each NIC is a node of a k-ary tree. A member's
// host contributes its operand with one SETEVENT + PIO write; children's
// contributions arrive as QDMA deposits into a dedicated ring whose queue
// descriptor triggers a combining event. When the event has counted all
// children plus the local host, its chained closure runs *on the NIC*:
// combine in fixed child order, forward one QDMA up — zero host
// involvement at interior nodes. The root's fire starts the downward
// wave: chained QDMAs release each subtree, every host unblocks on its
// done word.
//
// Determinism contract (the same one the sharded kernel's identity proof
// relies on): contributions are combined in member-index order, never
// arrival order, so the result — including non-commutative floating-point
// rounding — is a pure function of the operands. Arrival order may differ
// between runs only in wall clock, never in virtual time, but the fixed
// combine order makes the result robust even to model changes.

// hwCollRadix is the fan-in of the NIC combine tree. Four keeps the
// per-NIC combine cheap (≤ 4 QDMA deposits per operation) while the tree
// depth stays log₄(n) — 6 levels at 4096 ranks.
const hwCollRadix = 4

// HWCollPeers returns the ranks adjacent to rank in the NIC combine tree
// over a world of n ranks — the connections SetupHWColl requires. Restricted
// peer sets (cluster.Spec.Peers) must include them.
func HWCollPeers(rank, n int) []int {
	ps := make([]int, 0, hwCollRadix+1)
	if rank > 0 {
		ps = append(ps, (rank-1)/hwCollRadix)
	}
	for c := rank*hwCollRadix + 1; c <= rank*hwCollRadix+hwCollRadix && c < n; c++ {
		ps = append(ps, c)
	}
	return ps
}

// hwTree is one member's slice of the NIC-resident collective tree.
type hwTree struct {
	m      *Module
	size   int
	me     int   // this member's rank
	parent int   // parent vpid, -1 at the root
	kids   []int // child vpids, in member-index order
	kidIdx map[int]int

	upQ    *elan4.RecvQueue // children's contributions
	downQ  *elan4.RecvQueue // release wave (nil at the root)
	upEv   *elan4.Event     // counts kids + local host, chains combine
	downEv *elan4.Event     // counts the release deposit, chains release

	done    *simtime.Counter // host-visible completion word
	hostOps int64
	seq     uint64 // operation sequence, checked against every frame

	bytes         int // operand length of the op in flight
	val, acc, out []byte
	kidBuf        [][]byte
	stage         []byte
	op            func(dst, src []byte)
}

// SetupHWColl builds this member's node of the NIC collective tree over
// members (me must be one of them). It must run after connections to the
// tree neighbours exist and before any member starts collective traffic —
// a QDMA to a context without the ring is a hard fault, not a retry.
// Purely local: it creates the rings and events and charges only this
// host's descriptor writes. Returns false when a tree neighbour is not a
// connected peer.
func (m *Module) SetupHWColl(th *simtime.Thread, members []int, me int) bool {
	if m.hw != nil {
		return true
	}
	if len(members) < 2 {
		return false
	}
	idx := -1
	for i, r := range members {
		if r == me {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	t := &hwTree{
		m: m, size: len(members), me: me, parent: -1,
		kidIdx: make(map[int]int), done: simtime.NewCounter(),
	}
	if idx > 0 {
		pi, ok := m.peers[members[(idx-1)/hwCollRadix]]
		if !ok {
			return false
		}
		t.parent = pi.vpid
	}
	for c := idx*hwCollRadix + 1; c <= idx*hwCollRadix+hwCollRadix && c < len(members); c++ {
		pi, ok := m.peers[members[c]]
		if !ok {
			return false
		}
		t.kidIdx[pi.vpid] = len(t.kids)
		t.kids = append(t.kids, pi.vpid)
	}
	th.Compute(2 * m.cfg.CmdIssue) // the two queue-descriptor writes
	slots := len(t.kids) + 2
	if slots < 4 {
		slots = 4
	}
	t.upQ = m.st.Ctx.CreateQueue(qidHWUp, slots)
	t.upEv = m.st.Ctx.NewEvent(len(t.kids) + 1)
	t.upEv.Chain(t.combineFire)
	t.upQ.SetEvent(t.upEv)
	if t.parent >= 0 {
		t.downQ = m.st.Ctx.CreateQueue(qidHWDown, 4)
		t.downEv = m.st.Ctx.NewEvent(1)
		t.downEv.Chain(t.releaseFire)
		t.downQ.SetEvent(t.downEv)
	}
	t.kidBuf = make([][]byte, len(t.kids))
	m.hw = t
	return true
}

// HWBarrier implements mpi.HWColl: a zero-operand pass through the
// combine tree. Returns false (software fallback) when the tree does not
// match the group.
func (m *Module) HWBarrier(th *simtime.Thread, members []int, me int) bool {
	return m.hwCombine(th, members, me, nil, nil)
}

// HWAllreduce implements mpi.HWColl: data is every member's operand on
// entry and the reduction over all members on return. op must be
// associative; the tree applies it in member-index order. Returns false
// (software fallback) when the tree does not match the group or the
// operand exceeds one QDMA frame.
func (m *Module) HWAllreduce(th *simtime.Thread, members []int, me int, data []byte, op func(dst, src []byte)) bool {
	return m.hwCombine(th, members, me, data, op)
}

func (m *Module) hwCombine(th *simtime.Thread, members []int, me int, data []byte, op func(dst, src []byte)) bool {
	if len(members) < 2 {
		return true
	}
	t := m.hw
	if t == nil || t.size != len(members) || t.me != me {
		return false
	}
	if len(data) > m.cfg.QDMAMaxPayload-chunkHeader {
		return false
	}
	t.ensure(len(data))
	t.bytes = len(data)
	copy(t.val, data)
	t.op = op
	corr := trace.MsgID(me, t.seq)
	// One command plus the PIO write of the operand into NIC memory.
	th.Compute(m.cfg.CmdIssue + simtime.BytesAt(chunkHeader+len(data), m.cfg.PIOBandwidth))
	m.traceCorr(trace.HWCollUp, uint64(t.hostOps+1), members[0], 0, len(data), corr)
	m.st.Ctx.SetEvent(th, t.upEv)
	t.hostOps++
	m.st.PollWord(th, t.done, t.hostOps)
	copy(data, t.out[:len(data)])
	m.traceCorr(trace.HWCollDone, uint64(t.hostOps), members[0], 0, len(data), corr)
	return true
}

// ensure sizes the tree's operand buffers for an n-byte operation.
func (t *hwTree) ensure(n int) {
	if cap(t.val) >= n {
		return
	}
	t.val = make([]byte, n)
	t.acc = make([]byte, n)
	t.out = make([]byte, n)
	for i := range t.kidBuf {
		t.kidBuf[i] = make([]byte, n)
	}
}

// frame stamps the operation sequence header onto body in the reusable
// staging buffer (QDMAFromNIC copies at issue, so reuse is safe).
func (t *hwTree) frame(body []byte) []byte {
	need := chunkHeader + len(body)
	if cap(t.stage) < need {
		t.stage = make([]byte, need)
	}
	s := t.stage[:need]
	binary.LittleEndian.PutUint64(s, t.seq)
	copy(s[chunkHeader:], body)
	return s
}

// combineFire is upEv's chain: it runs on the NIC when every child's
// contribution has been deposited and the local host has issued its
// SETEVENT. All deposits strictly precede the event decrements that
// complete the count, so the ring holds exactly len(kids) frames here.
func (t *hwTree) combineFire() {
	m := t.m
	for range t.kids {
		msg, ok := t.upQ.Poll()
		if !ok {
			panic("ptlelan4: hw tree combine fired short of contributions")
		}
		if got := binary.LittleEndian.Uint64(msg.Data); got != t.seq {
			panic("ptlelan4: hw tree contribution from a different operation")
		}
		slot := t.kidIdx[msg.SrcVPID]
		copy(t.kidBuf[slot][:t.bytes], msg.Data[chunkHeader:])
	}
	acc := t.acc[:t.bytes]
	copy(acc, t.val[:t.bytes])
	if t.op != nil {
		// Fixed member-index order — the determinism contract above.
		for i := range t.kids {
			t.op(acc, t.kidBuf[i][:t.bytes])
		}
	}
	if t.parent >= 0 {
		m.st.Ctx.QDMAFromNIC(t.parent, qidHWUp, t.frame(acc), nil, m.onSendError)
		return
	}
	t.release()
}

// releaseFire is downEv's chain: the parent's release frame arrived.
func (t *hwTree) releaseFire() {
	msg, ok := t.downQ.Poll()
	if !ok {
		panic("ptlelan4: hw tree release fired with an empty ring")
	}
	if got := binary.LittleEndian.Uint64(msg.Data); got != t.seq {
		panic("ptlelan4: hw tree release from a different operation")
	}
	copy(t.acc[:t.bytes], msg.Data[chunkHeader:])
	t.release()
}

// release forwards the result down the tree and completes the local
// operation: chained QDMAs to every child, result into the host-visible
// buffer, both events re-armed for the next operation, done word bumped.
// Re-arming here — inside the chain closure, before any member of the
// subtree can start the next operation (a child needs this very release
// first, at least one wire latency away) — is what makes Rearm sound.
func (t *hwTree) release() {
	m := t.m
	if len(t.kids) > 0 {
		pay := t.frame(t.acc[:t.bytes])
		for _, kid := range t.kids {
			m.st.Ctx.QDMAFromNIC(kid, qidHWDown, pay, nil, m.onSendError)
		}
	}
	copy(t.out[:t.bytes], t.acc[:t.bytes])
	t.seq++
	t.upEv.Rearm(int64(len(t.kids)) + 1)
	if t.downEv != nil {
		t.downEv.Rearm(1)
	}
	t.done.Add(1)
}
