// Package mpi provides the MPI-2-flavoured interface of the stack:
// communicators (world, dup, split), blocking and nonblocking tagged
// point-to-point operations with wildcards, probes, waits, and collectives
// built over point-to-point (barrier, broadcast, reduce, allreduce,
// gather, allgather). The dynamic process management entry points (the
// MPI-2 feature the paper's PTL design enables over Quadrics) live in the
// public qsmpi package, which owns process creation.
package mpi

import (
	"encoding/binary"
	"fmt"

	"qsmpi/internal/datatype"
	"qsmpi/internal/pml"
	"qsmpi/internal/simtime"
)

// Wildcards, mirroring the PML's.
const (
	AnySource = pml.AnySource
	AnyTag    = pml.AnyTag
)

// collTagBase is the first tag reserved for collective operations; user
// tags must stay below it.
const collTagBase = 1 << 24

// Status describes a completed receive.
type Status = pml.Status

// Universe is state shared by every process of a simulated job: the
// communicator-id allocator. (In a real MPI this agreement comes from the
// collective itself; in the simulator all processes share an address
// space, so a memoized allocator gives every member the same answer.)
type Universe struct {
	nextComm uint16
	splits   map[string]uint16
}

// NewUniverse returns a fresh id space with comm 0 reserved for the world.
func NewUniverse() *Universe {
	return &Universe{nextComm: 1, splits: make(map[string]uint16)}
}

// commFor memoizes (parent, seq, color) → communicator id.
func (u *Universe) commFor(parent uint16, seq int, color int) uint16 {
	key := fmt.Sprintf("%d/%d/%d", parent, seq, color)
	if id, ok := u.splits[key]; ok {
		return id
	}
	id := u.nextComm
	if id == 0xffff {
		panic("mpi: communicator id space exhausted")
	}
	u.nextComm++
	u.splits[key] = id
	return id
}

// HWColl is an optional hardware-collective provider: QsNet's
// switch-replicated broadcast plus the NIC-resident combine trees for
// barrier and allreduce. Each method returns false when the group cannot
// be served, in which case the software tree runs instead; a provider
// must make that decision identically on every member (the fallback is
// collective too). The op passed to HWAllreduce must be associative — the
// provider applies it in member-index order, never arrival order.
type HWColl interface {
	HWBcast(th *simtime.Thread, root int, members []int, me int, data []byte) bool
	HWBarrier(th *simtime.Thread, members []int, me int) bool
	HWAllreduce(th *simtime.Thread, members []int, me int, data []byte, op func(dst, src []byte)) bool
}

// World is one process's MPI endpoint.
type World struct {
	th    *simtime.Thread
	stack *pml.Stack
	uni   *Universe
	rank  int
	size  int
	world *Comm

	// hw is shared across thread-clones so eligibility changes (world
	// growth) are visible everywhere.
	hw *hwState

	// nbcSeq numbers this process's nonblocking-collective schedules
	// (trace identity); a pointer so thread-clones share the space.
	nbcSeq *uint64
}

// hwState is the hardware-collective provider plus its eligibility: the
// latter is cleared once the world grows dynamically, because late joiners
// are outside the synchronized address space the hardware broadcast
// requires (§4.1 of the paper).
type hwState struct {
	coll     HWColl
	eligible bool
}

// SetHWColl installs a hardware-collective provider.
func (w *World) SetHWColl(h HWColl) {
	w.hw.coll = h
	w.hw.eligible = true
}

// NewWorld wraps a process's PML stack as an MPI endpoint of a job with
// the given world size.
func NewWorld(th *simtime.Thread, stack *pml.Stack, uni *Universe, rank, size int) *World {
	w := &World{th: th, stack: stack, uni: uni, rank: rank, size: size, hw: &hwState{}, nbcSeq: new(uint64)}
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	w.world = &Comm{w: w, id: 0, ranks: ranks, myIdx: rank, seq: &commSeq{}}
	return w
}

// Rank returns the world rank.
func (w *World) Rank() int { return w.rank }

// Size returns the world size.
func (w *World) Size() int { return w.size }

// Comm returns MPI_COMM_WORLD.
func (w *World) Comm() *Comm { return w.world }

// Thread returns the process's main thread (for direct simtime access).
func (w *World) Thread() *simtime.Thread { return w.th }

// CloneForThread returns a view of this world bound to a different OS
// thread of the same process, so application threads can issue MPI calls
// concurrently (the cooperative simulation serializes them, as a
// THREAD_MULTIPLE implementation's locks would).
func (w *World) CloneForThread(th *simtime.Thread) *World {
	cp := *w
	cp.th = th
	ranks := make([]int, len(w.world.ranks))
	copy(ranks, w.world.ranks)
	// The clone shares the original communicator's sequencing state, so
	// collectives issued from either thread stay globally ordered.
	cp.world = &Comm{w: &cp, id: 0, ranks: ranks, myIdx: w.world.myIdx, seq: w.world.seq}
	return &cp
}

// Stack exposes the PML (instrumentation, stats).
func (w *World) Stack() *pml.Stack { return w.stack }

// GrowWorld extends the world after dynamic process creation: the world
// communicator now spans newSize ranks. Called by the harness's spawn
// protocol on every participant.
func (w *World) GrowWorld(newSize int) {
	if newSize <= w.size {
		return
	}
	// Dynamic joiners preclude the hardware broadcast path.
	w.hw.eligible = false
	w.size = newSize
	ranks := make([]int, newSize)
	for i := range ranks {
		ranks[i] = i
	}
	w.world.ranks = ranks
	if w.world.myIdx < 0 {
		w.world.myIdx = w.rank
	}
}

// Comm is a communicator: an ordered group of world ranks with an isolated
// tag space.
type Comm struct {
	w     *World
	id    uint16
	ranks []int // comm rank → world rank
	myIdx int   // my comm rank (-1 if not a member)

	// seq is shared between thread-clones of the same communicator so
	// collective ordering stays consistent across application threads.
	seq *commSeq
}

// commSeq is a communicator's collective/split sequencing state.
type commSeq struct {
	splitSeq int
	collSeq  int
}

// SyncState exports the communicator's collective/split sequence counters
// so a dynamically admitted process can align with the group (every
// member's counters agree by collective-call discipline).
func (c *Comm) SyncState() (collSeq, splitSeq int) { return c.seq.collSeq, c.seq.splitSeq }

// SetSyncState aligns a fresh member's sequence counters with the group's.
func (c *Comm) SetSyncState(collSeq, splitSeq int) {
	c.seq.collSeq = collSeq
	c.seq.splitSeq = splitSeq
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.myIdx }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.ranks[r] }

func (c *Comm) worldOf(r int) int {
	if r == AnySource {
		return AnySource
	}
	return c.member(r)
}

// member is worldOf for a rank that must name a member: a root, which the
// wildcard is not.
func (c *Comm) member(r int) int {
	if r < 0 || r >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d outside communicator of %d", r, len(c.ranks)))
	}
	return c.ranks[r]
}

func checkTag(tag int) {
	// User tags live in [0, collTagBase); the range above is reserved for
	// collectives, which route through the same entry points.
	if tag != AnyTag && (tag < 0 || tag >= collTagBase+(1<<21)) {
		panic(fmt.Sprintf("mpi: tag %d outside [0,%d)", tag, collTagBase))
	}
}

// commStatus converts world-rank source to comm rank in a status.
func (c *Comm) commStatus(st Status) Status {
	for i, wr := range c.ranks {
		if wr == st.Source {
			st.Source = i
			break
		}
	}
	return st
}

// Request is a nonblocking operation handle: a point-to-point send or
// receive, or a nonblocking-collective schedule (Ibarrier/Ibcast/
// Iallreduce) — exactly one of s, r, n is set.
type Request struct {
	c *Comm
	s *pml.SendReq
	r *pml.RecvReq
	n *nbcOp

	// completed caches a positive Wait/Test verdict: repeated Test calls
	// on a finished request are idempotent and allocation-free — no
	// progress sweep, no state change beyond the pml/test counter.
	completed bool
}

// Wait blocks until the operation completes and returns its status
// (meaningful for receives). Waiting again on a completed request
// returns immediately.
func (q *Request) Wait() Status {
	switch {
	case q.s != nil:
		q.s.Wait(q.c.w.th)
		q.completed = true
		return Status{}
	case q.r != nil:
		q.r.Wait(q.c.w.th)
		q.completed = true
		return q.c.commStatus(q.r.Status())
	default:
		// A collective schedule needs the waiting thread itself to keep
		// sweeping (hooks advance in the progress pass), in every mode.
		q.c.w.stack.Block(q.c.w.th, q.n.done.Fired, false)
		q.completed = true
		return Status{}
	}
}

// Test reports completion without blocking, recording one pml/test probe.
// An incomplete request costs one progress sweep; once the request has
// completed, further Tests return true immediately.
func (q *Request) Test() bool {
	q.c.w.stack.NoteTest()
	if q.completed {
		return true
	}
	q.c.w.stack.Progress(q.c.w.th)
	if q.done() {
		q.completed = true
		return true
	}
	return false
}

// ---- Point-to-point ----

// Isend starts a nonblocking typed send.
func (c *Comm) Isend(dst, tag int, buf []byte, dt *datatype.Datatype) *Request {
	checkTag(tag)
	return &Request{c: c, s: c.w.stack.Send(c.w.th, c.worldOf(dst), tag, c.id, buf, dt)}
}

// Irecv posts a nonblocking typed receive.
func (c *Comm) Irecv(src, tag int, buf []byte, dt *datatype.Datatype) *Request {
	checkTag(tag)
	return &Request{c: c, r: c.w.stack.Recv(c.w.th, c.worldOf(src), tag, c.id, buf, dt)}
}

// Send is a blocking typed send; like every blocking call, it makes no Request.
func (c *Comm) Send(dst, tag int, buf []byte, dt *datatype.Datatype) {
	checkTag(tag)
	c.w.stack.Send(c.w.th, c.worldOf(dst), tag, c.id, buf, dt).Wait(c.w.th)
}

// Issend starts a nonblocking synchronous send (MPI_Issend): completion
// implies the receiver has matched the message.
func (c *Comm) Issend(dst, tag int, buf []byte, dt *datatype.Datatype) *Request {
	checkTag(tag)
	return &Request{c: c, s: c.w.stack.SendSync(c.w.th, c.worldOf(dst), tag, c.id, buf, dt)}
}

// Ssend is the blocking synchronous send (MPI_Ssend).
func (c *Comm) Ssend(dst, tag int, buf []byte, dt *datatype.Datatype) {
	checkTag(tag)
	c.w.stack.SendSync(c.w.th, c.worldOf(dst), tag, c.id, buf, dt).Wait(c.w.th)
}

// PersistentSend is an MPI persistent request (MPI_Send_init/Start):
// captured arguments restarted any number of times.
type PersistentSend struct {
	c        *Comm
	dst, tag int
	buf      []byte
	dt       *datatype.Datatype
	cur      *Request
}

// SendInit creates a persistent send request bound to buf.
func (c *Comm) SendInit(dst, tag int, buf []byte, dt *datatype.Datatype) *PersistentSend {
	checkTag(tag)
	return &PersistentSend{c: c, dst: dst, tag: tag, buf: buf, dt: dt}
}

// Start launches one instance of the persistent operation. Starting while
// a previous instance is incomplete panics, per MPI semantics.
func (p *PersistentSend) Start() {
	if p.cur != nil && !p.cur.Test() {
		panic("mpi: Start on an active persistent send")
	}
	p.cur = p.c.Isend(p.dst, p.tag, p.buf, p.dt)
}

// Wait completes the current instance.
func (p *PersistentSend) Wait() {
	if p.cur == nil {
		panic("mpi: Wait on a never-started persistent send")
	}
	p.cur.Wait()
}

// PersistentRecv is the receive-side persistent request.
type PersistentRecv struct {
	c        *Comm
	src, tag int
	buf      []byte
	dt       *datatype.Datatype
	cur      *Request
}

// RecvInit creates a persistent receive request bound to buf.
func (c *Comm) RecvInit(src, tag int, buf []byte, dt *datatype.Datatype) *PersistentRecv {
	checkTag(tag)
	return &PersistentRecv{c: c, src: src, tag: tag, buf: buf, dt: dt}
}

// Start posts one instance of the persistent receive.
func (p *PersistentRecv) Start() {
	if p.cur != nil && !p.cur.Test() {
		panic("mpi: Start on an active persistent recv")
	}
	p.cur = p.c.Irecv(p.src, p.tag, p.buf, p.dt)
}

// Wait completes the current instance and returns its status.
func (p *PersistentRecv) Wait() Status {
	if p.cur == nil {
		panic("mpi: Wait on a never-started persistent recv")
	}
	return p.cur.Wait()
}

// Recv is a blocking typed receive.
func (c *Comm) Recv(src, tag int, buf []byte, dt *datatype.Datatype) Status {
	checkTag(tag)
	rq := c.w.stack.Recv(c.w.th, c.worldOf(src), tag, c.id, buf, dt)
	rq.Wait(c.w.th)
	return c.commStatus(rq.Status())
}

// SendBytes / RecvBytes are contiguous-buffer conveniences.
func (c *Comm) SendBytes(dst, tag int, buf []byte) {
	c.Send(dst, tag, buf, datatype.Contiguous(len(buf)))
}

// RecvBytes receives a contiguous message into buf.
func (c *Comm) RecvBytes(src, tag int, buf []byte) Status {
	return c.Recv(src, tag, buf, datatype.Contiguous(len(buf)))
}

// Sendrecv exchanges messages with possibly different partners without
// deadlocking.
func (c *Comm) Sendrecv(dst, stag int, sbuf []byte, sdt *datatype.Datatype,
	src, rtag int, rbuf []byte, rdt *datatype.Datatype) Status {
	checkTag(rtag)
	rq := c.w.stack.Recv(c.w.th, c.worldOf(src), rtag, c.id, rbuf, rdt)
	checkTag(stag)
	sq := c.w.stack.Send(c.w.th, c.worldOf(dst), stag, c.id, sbuf, sdt)
	rq.Wait(c.w.th)
	sq.Wait(c.w.th)
	return c.commStatus(rq.Status())
}

// Probe blocks until a matching message is available.
func (c *Comm) Probe(src, tag int) Status {
	checkTag(tag)
	return c.commStatus(c.w.stack.Probe(c.w.th, c.worldOf(src), tag, c.id))
}

// Iprobe checks for a matching message.
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	checkTag(tag)
	st, ok := c.w.stack.Iprobe(c.w.th, c.worldOf(src), tag, c.id)
	return c.commStatus(st), ok
}

// Waitall completes a set of requests.
func Waitall(reqs ...*Request) {
	for _, q := range reqs {
		if q != nil {
			q.Wait()
		}
	}
}

// Waitany blocks until at least one request completes and returns the
// lowest index among the completed ones and its status; that request
// counts as completed, as after Wait. Completed requests passed again
// return immediately. Nil entries are skipped; Waitany of nothing (or
// all-nil) returns (-1, Status{}) at once. All requests must belong to the
// same process.
func Waitany(reqs ...*Request) (int, Status) {
	w := worldOf(reqs)
	if w == nil {
		return -1, Status{}
	}
	i := -1
	w.stack.Block(w.th, func() bool {
		for j, q := range reqs {
			if q != nil && q.done() {
				i = j
				return true
			}
		}
		return false
	}, true)
	reqs[i].completed = true
	return i, reqs[i].status()
}

// worldOf is the process of the first non-nil request, nil if there is
// none.
func worldOf(reqs []*Request) *World {
	for _, q := range reqs {
		if q != nil {
			return q.c.w
		}
	}
	return nil
}

// Testany checks a set of requests without blocking: already-completed
// requests win immediately; otherwise one progress sweep runs and the
// first (lowest-index) completed request's index and status are
// returned. ok is false when none has completed. Nil entries are
// skipped; Testany of nothing (or all-nil) reports (-1, Status{}, false).
// All requests must belong to the same process.
func Testany(reqs ...*Request) (int, Status, bool) {
	w := worldOf(reqs)
	if w == nil {
		return -1, Status{}, false
	}
	w.stack.NoteTest()
	for i, q := range reqs {
		if q != nil && (q.completed || q.done()) {
			q.completed = true
			return i, q.status(), true
		}
	}
	w.stack.Progress(w.th)
	for i, q := range reqs {
		if q != nil && q.done() {
			q.completed = true
			return i, q.status(), true
		}
	}
	return -1, Status{}, false
}

func (q *Request) done() bool {
	switch {
	case q.s != nil:
		return q.s.Done()
	case q.r != nil:
		return q.r.Done()
	default:
		return q.n.done.Fired()
	}
}

func (q *Request) status() Status {
	if q.r != nil {
		return q.c.commStatus(q.r.Status())
	}
	return Status{}
}

// ---- Communicator management ----

// Dup duplicates the communicator with a fresh tag space.
func (c *Comm) Dup() *Comm {
	c.seq.splitSeq++
	id := c.w.uni.commFor(c.id, c.seq.splitSeq, 0)
	return &Comm{w: c.w, id: id, ranks: append([]int(nil), c.ranks...), myIdx: c.myIdx, seq: &commSeq{}}
}

// Split partitions the communicator by color; members with the same color
// form a new communicator ordered by (key, old rank). A negative color
// returns nil (MPI_UNDEFINED). Collective: every member must call it.
func (c *Comm) Split(color, key int) *Comm {
	c.seq.splitSeq++
	// Allgather (color, key) over the communicator.
	type ck struct{ color, key, rank int }
	all := make([]ck, c.Size())
	mine := ck{color, key, c.myIdx}
	buf := encodeCK(mine)
	gathered := c.allgatherBytes(buf)
	for i := range all {
		all[i] = decodeCK(gathered[i*12 : (i+1)*12])
	}
	if color < 0 {
		return nil
	}
	var members []ck
	for _, e := range all {
		if e.color == color {
			members = append(members, e)
		}
	}
	// Order by (key, rank).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].rank < members[j-1].rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	ranks := make([]int, len(members))
	myIdx := -1
	for i, e := range members {
		ranks[i] = c.ranks[e.rank]
		if e.rank == c.myIdx {
			myIdx = i
		}
	}
	id := c.w.uni.commFor(c.id, c.seq.splitSeq, color)
	return &Comm{w: c.w, id: id, ranks: ranks, myIdx: myIdx, seq: &commSeq{}}
}

func encodeCK(e struct{ color, key, rank int }) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:], uint32(e.color))
	binary.LittleEndian.PutUint32(b[4:], uint32(e.key))
	binary.LittleEndian.PutUint32(b[8:], uint32(e.rank))
	return b
}

func decodeCK(b []byte) (e struct{ color, key, rank int }) {
	get32 := func(off int) int { return int(int32(binary.LittleEndian.Uint32(b[off:]))) }
	e.color, e.key, e.rank = get32(0), get32(4), get32(8)
	return
}
