// Package pml implements the Point-to-point Management Layer of the Open
// MPI communication architecture (the "TEG" PML the paper builds on):
// request management, MPI matching semantics (wildcards, per-peer ordering
// by sequence number), eager/rendezvous protocol selection, scheduling of
// message remainders across the available PTL modules, and the progress
// engine in its polling, interrupt-measurement and threaded modes.
//
// The PML is transport-neutral: everything network-specific (QDMA, RDMA
// schemes, FIN/FIN_ACK control traffic, completion queues) lives below the
// ptl.Module interface.
package pml

import (
	"qsmpi/internal/datatype"
	"qsmpi/internal/ptl"
	"qsmpi/internal/simtime"
)

// Wildcards for receive matching.
const (
	// AnySource matches a receive against messages from every rank.
	AnySource = -1
	// AnyTag matches a receive against every tag.
	AnyTag = -1
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// sendState is one in-flight send: what sendReqs, the modules (through sd)
// and the completion path hold. It lives on Stack.sendStates.
type sendState struct {
	id    uint64
	stack *Stack

	dst    int
	tag    int
	comm   uint16
	acked  bool
	dtype  *datatype.Datatype
	user   []byte // caller's buffer (typed layout)
	packed []byte // contiguous representation (== user when contiguous)
	// sd is the descriptor the modules are handed, first fragment to last
	// Put: the match header and the registered memory, stored here once.
	sd     ptl.SendDesc
	memMod ptl.Module // registered sd.Mem; takes it back at completion

	n          int // total message bytes
	progressed int
	inlineLen  int          // bytes inlined with the first fragment
	postedAt   simtime.Time // for completion-latency histograms
	done       simtime.Signal
}

// SendReq is the caller's handle on one send and its state's only owner:
// the first Wait or Done that sees completion gives the state back.
type SendReq struct {
	st *sendState
	id uint64
}

// ID returns the request handle stamped into headers.
func (r *SendReq) ID() uint64 { return r.id }

// Done reports completion.
func (r *SendReq) Done() bool {
	if st := r.st; st != nil && st.done.Fired() {
		r.st = nil
		st.stack.sendStates.Put(st, sendState{})
	}
	return r.st == nil
}

// Wait blocks until the send completes, driving progress per the stack's
// progress mode.
func (r *SendReq) Wait(th *simtime.Thread) {
	for !r.Done() {
		r.st.stack.waitOn(th, &r.st.done)
	}
}

// recvState is one posted receive: what the match structures, recvReqs and
// the completion path hold. It lives on Stack.recvStates.
type recvState struct {
	id    uint64
	stack *Stack

	src     int // AnySource allowed
	tag     int // AnyTag allowed
	comm    uint16
	matched bool
	dtype   *datatype.Datatype
	user    []byte

	// pseq is the posting order within the communicator; matching merges
	// the specific bucket and the wildcard list by it, so the
	// first-posted-wins (non-overtaking) rule survives bucketing.
	pseq uint64

	staging  []byte // contiguous landing area (== user when contiguous)
	mem      ptl.MemDesc
	memMod   ptl.Module // registered mem (rendezvous only); takes it back at completion
	msgLen   int
	got      int
	status   Status
	postedAt simtime.Time // for completion-latency histograms
	done     simtime.Signal
	// corr is the matched message's cross-rank correlator (trace.MsgID of
	// the sender's request); zero until matched or when untraced.
	corr uint64
}

// RecvReq is the caller's handle on one posted receive, released as a
// SendReq is, with the status copied out first.
type RecvReq struct {
	st     *recvState
	id     uint64
	status Status
}

// ID returns the request handle stamped into headers.
func (r *RecvReq) ID() uint64 { return r.id }

// Done reports completion.
func (r *RecvReq) Done() bool {
	if st := r.st; st != nil && st.done.Fired() {
		r.st, r.status = nil, st.status
		st.stack.recvStates.Put(st, recvState{})
	}
	return r.st == nil
}

// Status returns the source/tag/length of the matched message. Only valid
// after completion.
func (r *RecvReq) Status() Status {
	r.Done()
	return r.status
}

// Wait blocks until the receive completes, driving progress per the
// stack's progress mode.
func (r *RecvReq) Wait(th *simtime.Thread) {
	for !r.Done() {
		r.st.stack.waitOn(th, &r.st.done)
	}
}

// matchKey identifies a matching context (one per communicator).
type matchKey = uint16

// firstFrag is a MATCH/RNDV fragment being matched. One that finds its
// receive posted lives on ReceiveFirst's stack, data still the transport's;
// one that must wait — for a receive (the unexpected queue) or its turn in
// sequence (the reorder buffer) — is copied, data and all, into one from
// Stack.frags (queued) and goes back once matched (releaseFrag).
type firstFrag struct {
	mod  ptl.Module
	peer *ptl.Peer
	hdr  ptl.Header
	data []byte
	// aseq is the arrival order within the communicator; wildcard receives
	// pick the minimum across buckets, recovering global FIFO order.
	aseq uint64
}

// stKey packs a concrete (source rank, tag) pair into one bucket key.
// Wildcards never appear in keys: fragments always carry concrete values,
// and wildcard receives take the separate list.
func stKey(src, tag int32) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(tag))
}

// commState is the per-communicator matching state. Both match directions
// are bucketed by concrete (source,tag): a fragment probes exactly one
// posted bucket plus the wildcard list; a specific receive probes exactly
// one unexpected bucket. Order merges restore the linear-scan semantics:
// posted entries carry posting sequence (pseq), unexpected entries carry
// arrival sequence (aseq), and the candidate with the smaller sequence
// wins — exactly the entry a front-to-back scan of the old single FIFO
// would have found first.
type commState struct {
	posted     map[uint64][]*recvState // specific receives by (src,tag), FIFO
	postedWild []*recvState            // AnySource/AnyTag receives, FIFO
	nextPost   uint64
	// spare keeps the arrays of buckets that emptied for the next bucket to
	// open, so a receive posted ahead of its message allocates no cell.
	spare [][]*recvState

	unexpected map[uint64][]*firstFrag // unmatched arrivals by (src,tag), FIFO
	unexpCount int
	nextArr    uint64

	expected map[int]uint32       // next expected seq per source rank
	reorder  map[int][]*firstFrag // out-of-sequence arrivals per source
	seqOut   map[int]uint32       // next seq to stamp per destination rank
}

func newCommState() *commState {
	return &commState{
		posted:     make(map[uint64][]*recvState),
		unexpected: make(map[uint64][]*firstFrag),
		expected:   make(map[int]uint32),
		reorder:    make(map[int][]*firstFrag),
		seqOut:     make(map[int]uint32),
	}
}

// matches reports whether a receive for (src, tag) accepts a fragment.
func matches(src, tag int, hdr *ptl.Header) bool {
	if src != AnySource && int32(src) != hdr.SrcRank {
		return false
	}
	if tag != AnyTag && int32(tag) != hdr.Tag {
		return false
	}
	return true
}

// postRecv appends a receive to its matching structure in posting order.
func (cs *commState) postRecv(r *recvState) {
	r.pseq = cs.nextPost
	cs.nextPost++
	if r.src == AnySource || r.tag == AnyTag {
		cs.postedWild = append(cs.postedWild, r)
		return
	}
	k := stKey(int32(r.src), int32(r.tag))
	b, open := cs.posted[k]
	if n := len(cs.spare); !open && n > 0 {
		b, cs.spare = cs.spare[n-1], cs.spare[:n-1]
	}
	cs.posted[k] = append(b, r)
}

// takePosted removes and returns the posted receive the fragment matches
// — the earliest-posted across the specific bucket and the wildcard list —
// or nil. wild reports which path produced the match.
func (cs *commState) takePosted(hdr *ptl.Header) (req *recvState, wild bool) {
	k := stKey(hdr.SrcRank, hdr.Tag)
	bucket := cs.posted[k]
	wi := -1
	for i, r := range cs.postedWild {
		if matches(r.src, r.tag, hdr) {
			wi = i
			break
		}
	}
	switch {
	case len(bucket) == 0 && wi < 0:
		return nil, false
	case wi < 0 || (len(bucket) > 0 && bucket[0].pseq < cs.postedWild[wi].pseq):
		req = bucket[0]
		bucket[0] = nil
		if len(bucket) == 1 {
			delete(cs.posted, k)
			cs.spare = append(cs.spare, bucket[:0])
		} else {
			cs.posted[k] = bucket[1:]
		}
		return req, false
	default:
		req = cs.postedWild[wi]
		cs.postedWild = append(cs.postedWild[:wi], cs.postedWild[wi+1:]...)
		return req, true
	}
}

// addUnexpected stores an unmatched arrival in arrival order.
func (cs *commState) addUnexpected(ff *firstFrag) {
	ff.aseq = cs.nextArr
	cs.nextArr++
	k := stKey(ff.hdr.SrcRank, ff.hdr.Tag)
	cs.unexpected[k] = append(cs.unexpected[k], ff)
	cs.unexpCount++
}

// peekUnexpected returns the earliest-arrived unexpected fragment a
// receive (or probe) for src and tag matches, without removing it, plus its
// bucket key. A specific receive reads one bucket head; a wildcard receive
// takes the minimum arrival sequence across matching bucket heads (unique
// stamps make the map iteration deterministic).
func (cs *commState) peekUnexpected(src, tag int) (*firstFrag, uint64) {
	if src != AnySource && tag != AnyTag {
		k := stKey(int32(src), int32(tag))
		if q := cs.unexpected[k]; len(q) > 0 {
			return q[0], k
		}
		return nil, 0
	}
	var best *firstFrag
	var bestKey uint64
	for k, q := range cs.unexpected {
		ff := q[0]
		if !matches(src, tag, &ff.hdr) {
			continue
		}
		if best == nil || ff.aseq < best.aseq {
			best, bestKey = ff, k
		}
	}
	return best, bestKey
}

// takeUnexpected is peekUnexpected plus removal.
func (cs *commState) takeUnexpected(src, tag int) *firstFrag {
	ff, k := cs.peekUnexpected(src, tag)
	if ff == nil {
		return nil
	}
	q := cs.unexpected[k]
	q[0] = nil
	if len(q) == 1 {
		delete(cs.unexpected, k)
	} else {
		cs.unexpected[k] = q[1:]
	}
	cs.unexpCount--
	return ff
}
