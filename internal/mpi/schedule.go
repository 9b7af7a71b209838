package mpi

import (
	"math/bits"

	"qsmpi/internal/datatype"
)

// A collective algorithm is a schedule: one member's rounds, each at most
// one receive and one send. The receive is posted first and both halves
// are retired together, so a round is Sendrecv, Recv or Send. The partner
// sequence is a pure function of (algorithm, n, me, root) — no tag, no
// buffer, no communicator — so a test walks it without a kernel
// (FuzzSchedulesPair), and it is a value advanced by next(), not a heap
// object holding closures: a blocking collective keeps it on its stack
// (as closures, coll-1024 allocated 1.26 % more). Two executors read it:
// Comm.run under the blocking calls, nbcOp.advance under the nonblocking.

type algorithm uint8

const (
	// dissemination: in round d every member sends 2^d up the ring and
	// receives from 2^d down it; after ceil(log2 n) rounds each has
	// transitively heard from all.
	dissemination algorithm = iota
	// binomialDown: the binomial tree from the root to the leaves — one
	// receive from the parent, then one send per child, largest sub-tree
	// first.
	binomialDown
	// binomialUp: the same tree from the leaves to the root — one receive
	// per child in increasing mask order, then one send to the parent.
	binomialUp
)

// noPeer marks the missing half of a round.
const noPeer = -1

// round names the comm ranks one round receives from and sends to.
type round struct{ from, to int }

// schedule is one member's place in its partner sequence.
type schedule struct {
	alg   algorithm
	n, me int
	rel   int // me's distance up the ring from the root
	mask  int // ring distance of the next round, a power of two
}

// newSchedule is member me's schedule of alg over n members; root must be
// a member (Comm.tree checks).
func newSchedule(alg algorithm, n, me, root int) schedule {
	s := schedule{alg: alg, n: n, me: me, rel: (me - root + n) % n, mask: 1}
	if alg == binomialDown {
		// A member's tree edges sit at its lowest set bit (the parent)
		// and every bit below it; the root's at every bit below n.
		s.mask = s.rel & -s.rel
		if s.rel == 0 {
			s.mask = 1 << bits.Len(uint(n-1)) >> 1 // the largest power of two below n
		}
	}
	return s
}

// next returns the following round, or false once the schedule has run.
func (s *schedule) next() (round, bool) {
	for 0 < s.mask && s.mask < s.n {
		m := s.mask
		above, below := (s.me+m)%s.n, (s.me-m+s.n)%s.n
		parent, child := s.rel&m != 0, s.rel+m < s.n
		switch s.alg {
		case dissemination:
			s.mask *= 2
			return round{from: below, to: above}, true
		case binomialDown:
			s.mask /= 2
			if parent {
				return round{from: below, to: noPeer}, true
			} else if child {
				return round{from: noPeer, to: above}, true
			}
		case binomialUp:
			s.mask *= 2
			if parent {
				s.mask = 0
				return round{from: noPeer, to: below}, true
			} else if child {
				return round{from: above, to: noPeer}, true
			}
		}
	}
	return round{}, false
}

// stage is a schedule bound to a communicator's tag and buffers: what an
// executor runs. Every send is sbuf, every receive lands in rbuf; fold,
// when set, combines a retired receive into sbuf (the reduction), and
// deliver, when set, is where sbuf goes once the schedule has run (the
// reduction's root).
type stage struct {
	sched      schedule
	tag        int
	sbuf, rbuf []byte
	dt         *datatype.Datatype
	fold       Op
	deliver    []byte
}

// tree roots a binomial schedule, refusing a root outside the
// communicator: modulo n it would name some other member.
func (c *Comm) tree(alg algorithm, root int) schedule {
	c.member(root)
	return newSchedule(alg, c.Size(), c.myIdx, root)
}

// barrierStage, bcastStage and reduceStage claim the next collective tag
// and bind the algorithm behind Barrier/Ibarrier, Bcast/Ibcast and
// Reduce/Iallreduce to it.
func (c *Comm) barrierStage() stage {
	return stage{sched: newSchedule(dissemination, c.Size(), c.myIdx, 0), tag: c.collTag(), dt: datatype.Contiguous(0)}
}

func (c *Comm) bcastStage(root int, buf []byte, dt *datatype.Datatype) stage {
	return stage{sched: c.tree(binomialDown, root), tag: c.collTag(), sbuf: buf, rbuf: buf, dt: dt}
}

func (c *Comm) reduceStage(root int, buf, recv []byte, op Op) stage {
	st := stage{sched: c.tree(binomialUp, root), tag: c.collTag(), sbuf: append([]byte(nil), buf...),
		rbuf: make([]byte, len(buf)), dt: datatype.Contiguous(len(buf)), fold: op}
	if c.myIdx == root {
		st.deliver = recv
	}
	return st
}

// run is the blocking executor: each round is a Sendrecv, Recv or Send,
// which post the receive first and wait on the pml handles.
func (c *Comm) run(st stage) {
	for r, ok := st.sched.next(); ok; r, ok = st.sched.next() {
		switch {
		case r.from != noPeer && r.to != noPeer:
			c.Sendrecv(r.to, st.tag, st.sbuf, st.dt, r.from, st.tag, st.rbuf, st.dt)
		case r.from != noPeer:
			c.Recv(r.from, st.tag, st.rbuf, st.dt)
		case r.to != noPeer:
			c.Send(r.to, st.tag, st.sbuf, st.dt)
		}
		if r.from != noPeer && st.fold != nil {
			st.fold(st.sbuf, st.rbuf)
		}
	}
	copy(st.deliver, st.sbuf)
}
