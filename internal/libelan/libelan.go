// Package libelan is the user-level programming library over the Elan4
// NIC model, mirroring the role of Quadrics' libelan/libelan4: queue
// allocation and receive helpers, event waiting in polling and blocking
// (interrupt) modes, and convenience wrappers for DMA submission.
//
// The polling model deserves a note. A real polling loop occupies a CPU
// for the whole wait; in virtual time we resolve the wait instantly (the
// waiter wakes exactly when the event word changes) and charge one
// successful-check cost, while accounting the elapsed wait as "spin time"
// in Stats. Latency is exact; CPU utilization of polling is reported
// rather than contended, which keeps event counts tractable. Blocking
// waits charge the full interrupt + thread-wake path and do not spin.
package libelan

import (
	"qsmpi/internal/elan4"
	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
)

// WaitMode selects how a wait is performed.
type WaitMode int

const (
	// Poll spins on the host event word (latency-optimal, burns CPU).
	Poll WaitMode = iota
	// Block arms a NIC interrupt and sleeps (frees the CPU, pays
	// interrupt latency plus thread wake).
	Block
)

// Stats aggregates per-State activity.
type Stats struct {
	PollWaits  int64
	BlockWaits int64
	SpinTime   simtime.Duration
}

// State is one process's libelan handle: its NIC context plus cost model.
type State struct {
	Ctx *elan4.Context
	Cfg model.Config

	stats Stats
}

// Attach wraps an open NIC context.
func Attach(ctx *elan4.Context, cfg model.Config) *State {
	return &State{Ctx: ctx, Cfg: cfg}
}

// Stats returns accumulated wait statistics.
func (s *State) Stats() Stats { return s.stats }

// PollWord spin-waits until the event word reaches target.
func (s *State) PollWord(th *simtime.Thread, w *simtime.Counter, target int64) {
	s.stats.PollWaits++
	start := th.Now()
	w.WaitFor(th.Proc(), target)
	s.stats.SpinTime += th.Now().Sub(start)
	th.Compute(s.Cfg.HostEventPoll)
}

// BlockEvent blocks the thread until the event has fired at least target
// times, using a NIC interrupt. The arm/recheck loop guards the
// lost-wakeup window: after arming, the word is rechecked before sleeping.
func (s *State) BlockEvent(th *simtime.Thread, ev *elan4.Event, target int64) {
	w := ev.HostWord()
	if w == nil {
		panic("libelan: BlockEvent needs an event with a host word")
	}
	for w.Value() < target {
		sig := simtime.NewSignal()
		ev.ArmInterrupt(sig)
		if w.Value() >= target {
			ev.DisarmInterrupt()
			break
		}
		s.stats.BlockWaits++
		th.BlockOn(sig, s.Cfg.ThreadWake)
	}
	th.Compute(s.Cfg.HostEventPoll)
}

// Queue wraps a receive queue with consume tracking and wait modes.
type Queue struct {
	s *State
	q *elan4.RecvQueue

	// WakePenalty is added to every blocking wake on this queue: the
	// scheduling/cache contention surcharge when several progress threads
	// share the host (model.Config.ThreadContention, scaled by the
	// transport that owns the queue).
	WakePenalty simtime.Duration

	seen int64 // deposits consumed so far
}

// NewQueue creates receive queue id with nslots slots and wraps it.
func (s *State) NewQueue(id, nslots int) *Queue {
	return &Queue{s: s, q: s.Ctx.CreateQueue(id, nslots)}
}

// Raw returns the underlying hardware queue.
func (q *Queue) Raw() *elan4.RecvQueue { return q.q }

// Ready reports whether a deposited message waits, without consuming it or
// charging anything: the read of a polling check, whose cost the caller
// charges (simtime.Thread.ComputeScan).
func (q *Queue) Ready() bool { return q.q.Pending() > 0 }

// Take consumes the oldest deposited message, if any, charging nothing.
func (q *Queue) Take() (elan4.QueuedMsg, bool) {
	m, ok := q.q.Poll()
	if ok {
		q.seen++
	}
	return m, ok
}

// Release gives a message Take or Recv returned back to the queue once
// the caller is done with its bytes (elan4.RecvQueue.Release).
func (q *Queue) Release(m elan4.QueuedMsg) { q.q.Release(m) }

// Recv waits for and consumes the next message in the given mode.
func (q *Queue) Recv(th *simtime.Thread, mode WaitMode) elan4.QueuedMsg {
	for {
		if m, ok := q.Take(); ok {
			th.Compute(q.s.Cfg.HostEventPoll)
			return m
		}
		target := q.seen + 1
		switch mode {
		case Poll:
			q.s.stats.PollWaits++
			start := th.Now()
			q.q.HostWord().WaitFor(th.Proc(), target)
			q.s.stats.SpinTime += th.Now().Sub(start)
		case Block:
			w := q.q.HostWord()
			if w.Value() < target {
				sig := simtime.NewSignal()
				q.q.ArmInterrupt(sig)
				if w.Value() >= target {
					q.q.DisarmInterrupt()
					continue
				}
				q.s.stats.BlockWaits++
				th.BlockOn(sig, q.s.Cfg.ThreadWake+q.WakePenalty)
			}
		}
	}
}

// QDMA sends data to queue `queue` of dstVPID, charging host issue costs.
func (s *State) QDMA(th *simtime.Thread, dstVPID, queue int, data []byte, done *elan4.Event, onError func(error)) {
	s.Ctx.IssueQDMA(th, dstVPID, queue, data, done, onError)
}

// BcastQDMA hardware-broadcasts data to queue `queue` of every process in
// vpids (switch-replicated multicast). The destination group must be
// static for the duration of the operation; see elan4.IssueQDMABcast.
func (s *State) BcastQDMA(th *simtime.Thread, vpids []int, queue int, data []byte, done *elan4.Event, onError func(error)) {
	s.Ctx.IssueQDMABcast(th, vpids, queue, data, done, onError)
}

// RDMAWrite transfers n bytes local→remote.
func (s *State) RDMAWrite(th *simtime.Thread, dstVPID int, src, dst elan4.E4Addr, n int, done *elan4.Event, onError func(error)) {
	s.Ctx.IssueRDMAWrite(th, dstVPID, src, dst, n, done, onError)
}

// RDMARead transfers n bytes remote→local.
func (s *State) RDMARead(th *simtime.Thread, dstVPID int, src, dst elan4.E4Addr, n int, done *elan4.Event, onError func(error)) {
	s.Ctx.IssueRDMARead(th, dstVPID, src, dst, n, done, onError)
}
