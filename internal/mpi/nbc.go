package mpi

import (
	"qsmpi/internal/datatype"
	"qsmpi/internal/pml"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Nonblocking collectives (MPI_Ibarrier/Ibcast/Iallreduce) are the
// schedules of their blocking counterparts (schedule.go) advanced from the
// PML progress path instead of run to completion: an nbcOp is the stages
// the blocking call would run, and one pml.ProgressHook. Every progress
// sweep (a blocking wait's polling loop, Request.Test, an explicit
// Progress) retires the round whose point-to-point sub-requests have
// completed and posts the next, so partners, tags and results are those of
// the blocking calls and the communicator's collective tag sequence
// advances exactly as it would have.
//
// Progress guarantee: like any software NBC without a dedicated
// collective progress thread, the schedule advances only inside MPI
// calls of the owning process. Request.Wait on a collective therefore
// drives pml.Stack.WaitActive — a poll-between-activity-bumps loop in
// every progress mode, Threaded included, because module progress
// threads complete the point-to-point sub-requests but only a progress
// sweep moves the schedule to its next round.

// nbcCorrBit tags nonblocking-collective correlators inside the 40-bit
// request space of trace.MsgID, so schedule spans never collide with a
// genuine send request's lifecycle in the critical-path profiler.
const nbcCorrBit = uint64(1) << 39

// nbcOp is one outstanding nonblocking collective.
type nbcOp struct {
	c   *Comm
	seq uint64 // per-process NBC sequence: trace identity

	phase int // retired rounds (trace only)
	done  simtime.Signal

	stages []stage      // run in order; stages[0] is the one under way
	rq     *pml.RecvReq // the round in flight, either half may be nil
	sq     *pml.SendReq
}

// newNBC numbers a schedule of stages.
func (c *Comm) newNBC(stages ...stage) *nbcOp {
	*c.w.nbcSeq++
	return &nbcOp{c: c, seq: *c.w.nbcSeq, stages: stages}
}

// advance is the nonblocking executor: retire the round in flight once
// both its halves have completed (fold, one NBCPhase), then post the next
// round's receive and send, until no stage has a round left. All
// sub-operations use the sweeping thread th, which is always a thread of
// the owning process.
func (op *nbcOp) advance(th *simtime.Thread) bool {
	c := op.c
	for len(op.stages) > 0 {
		st := &op.stages[0]
		if op.rq != nil || op.sq != nil {
			if op.rq != nil && !op.rq.Done() || op.sq != nil && !op.sq.Done() {
				return false
			}
			if op.rq != nil && st.fold != nil {
				st.fold(st.sbuf, st.rbuf)
			}
			op.rq, op.sq = nil, nil
			op.phase++
			op.trace(th, trace.NBCPhase, op.phase, 0)
		}
		r, ok := st.sched.next()
		if !ok {
			copy(st.deliver, st.sbuf)
			op.stages = op.stages[1:]
			continue
		}
		if r.from != noPeer {
			op.rq = c.w.stack.Recv(th, c.worldOf(r.from), st.tag, c.id, st.rbuf, st.dt)
		}
		if r.to != noPeer {
			op.sq = c.w.stack.Send(th, c.worldOf(r.to), st.tag, c.id, st.sbuf, st.dt)
		}
	}
	return true
}

// start runs the first advance at post time (phase 0 begins
// communicating immediately, like its blocking counterpart) and
// registers the progress hook that drives the rest of the schedule.
func (op *nbcOp) start(th *simtime.Thread, bytes int) *Request {
	op.trace(th, trace.NBCPosted, 0, bytes)
	if op.advance(th) {
		op.complete(th)
		return &Request{c: op.c, n: op, completed: true}
	}
	op.c.w.stack.AddProgressHook(func(ht *simtime.Thread) bool {
		if !op.advance(ht) {
			return true
		}
		op.complete(ht)
		return false
	})
	return &Request{c: op.c, n: op}
}

// complete fires the schedule's completion signal. Completion is
// progress: the activity bump wakes any thread parked between sweeps.
func (op *nbcOp) complete(th *simtime.Thread) {
	op.trace(th, trace.NBCCompleted, op.phase, 0)
	op.dutySample(th)
	op.done.Fire()
	op.c.w.stack.Activity().Add(1)
}

// trace records a collective-phase event carrying the schedule's
// correlator; free when no tracer is attached (zero perturbation).
func (op *nbcOp) trace(th *simtime.Thread, kind trace.Kind, tag, bytes int) {
	tr := op.c.w.stack.Tracer
	if tr == nil {
		return
	}
	tr.Record(trace.Event{
		At: th.Now(), Rank: op.c.w.rank, Layer: trace.LayerPML, Kind: kind,
		ReqID: op.seq, Peer: -1, Tag: tag, Bytes: bytes,
		Corr: trace.MsgID(op.c.w.rank, nbcCorrBit|op.seq),
	})
}

// dutySample emits this rank's cumulative progress duty cycle (per-mille
// of virtual time spent inside progress sweeps) as a ProgressDuty event;
// obs.WritePerfetto turns the samples into a counter track.
func (op *nbcOp) dutySample(th *simtime.Thread) {
	tr := op.c.w.stack.Tracer
	if tr == nil {
		return
	}
	now := th.Now()
	permille := op.c.w.stack.DutyPermille(now)
	tr.Record(trace.Event{
		At: now, Rank: op.c.w.rank, Layer: trace.LayerPML,
		Kind: trace.ProgressDuty, ReqID: op.seq, Peer: -1, Bytes: permille,
		Corr: 0, // a per-rank sample, deliberately uncorrelated
	})
}

// Ibarrier starts a nonblocking barrier: Barrier's dissemination rounds.
func (c *Comm) Ibarrier() *Request {
	if c.Size() == 1 {
		return c.newNBC().start(c.w.th, 0)
	}
	return c.newNBC(c.barrierStage()).start(c.w.th, 0)
}

// Ibcast starts a nonblocking broadcast over Bcast's binomial software
// tree. The hardware broadcast path is not used for schedules; every
// member makes the same choice, so collective sequencing stays aligned.
func (c *Comm) Ibcast(root int, buf []byte, dt *datatype.Datatype) *Request {
	if c.Size() == 1 {
		return c.newNBC().start(c.w.th, dt.Size())
	}
	return c.newNBC(c.bcastStage(root, buf, dt)).start(c.w.th, dt.Size())
}

// Iallreduce starts a nonblocking allreduce: the software Reduce-to-0 +
// Bcast-from-0 composition of Allreduce as two stages. Both collective
// tags are claimed up front (Bcast's only where Bcast would claim one),
// so the communicator's sequence advances exactly as the blocking call's
// would.
func (c *Comm) Iallreduce(buf, recv []byte, opFn Op) *Request {
	stages := []stage{c.reduceStage(0, buf, recv, opFn)}
	if c.Size() > 1 {
		stages = append(stages, c.bcastStage(0, recv, datatype.Contiguous(len(recv))))
	}
	return c.newNBC(stages...).start(c.w.th, len(buf))
}
