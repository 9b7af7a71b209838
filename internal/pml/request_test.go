package pml

import (
	"bytes"
	"fmt"
	"testing"

	"qsmpi/internal/datatype"
	"qsmpi/internal/simtime"
)

// handle is what SendReq and RecvReq share.
type handle interface {
	ID() uint64
	Done() bool
	Wait(th *simtime.Thread)
}

// pollDone is the nbcOp.advance pattern: no Wait, only Done between
// progress sweeps, until every handle reports completion.
func pollDone(th *simtime.Thread, s *Stack, hs ...handle) {
	for {
		all := true
		for _, h := range hs {
			all = h.Done() && all
		}
		if all {
			return
		}
		v := s.Activity().Value()
		s.Progress(th)
		if s.Activity().Value() == v {
			s.Activity().WaitFor(th.Proc(), v+1)
		}
	}
}

// withProgressThreads gives every rank of a Threaded rig the progress
// thread a real module would run: the fake modules have none, and a
// Threaded wait only sleeps on its request.
func withProgressThreads(t *testing.T, r *rig, mode ProgressMode) {
	if mode != Threaded {
		return
	}
	t.Cleanup(r.k.Close) // unwinds the parked progress threads
	for i, s := range r.stack {
		r.hosts[i].Spawn("progress", func(th *simtime.Thread) {
			th.Proc().MarkDaemon()
			for {
				v := s.Activity().Value()
				s.Progress(th)
				s.Activity().WaitFor(th.Proc(), v+1)
			}
		})
	}
}

// TestHandleSemantics runs each way of completing a request — Wait, Wait
// twice, Done before and after Wait, a Done-polling loop, a self-send,
// SendSync, a handle never waited on — under every progress mode, eager
// and rendezvous. Whatever the order, a handle reports the same ID before
// and after its state goes back, Done stays true, a receive's Status is the
// message's, and at quiescence Gets − Puts on the state lists is exactly
// the number of requests nobody waited on.
func TestHandleSemantics(t *testing.T) {
	wait := func(th *simtime.Thread, s *Stack, h handle) { h.Wait(th) }
	cases := []struct {
		name     string
		complete func(th *simtime.Thread, s *Stack, h handle)
		self     bool // rank 0 sends to itself; rank 1 idles
		sync     bool // SendSync, receive posted 20 µs late
		leak     bool // the send is never waited on; Finalize drains it
	}{
		{name: "wait", complete: wait},
		{name: "wait-twice", complete: func(th *simtime.Thread, s *Stack, h handle) {
			h.Wait(th)
			h.Wait(th)
		}},
		{name: "done-then-wait", complete: func(th *simtime.Thread, s *Stack, h handle) {
			pollDone(th, s, h)
			h.Wait(th)
		}},
		{name: "wait-then-done", complete: func(th *simtime.Thread, s *Stack, h handle) {
			h.Wait(th)
			if !h.Done() {
				panic("Done false after Wait")
			}
		}},
		{name: "done-polling", complete: func(th *simtime.Thread, s *Stack, h handle) { pollDone(th, s, h) }},
		{name: "self", complete: wait, self: true},
		{name: "sendsync", complete: wait, sync: true},
		{name: "never-waited", complete: wait, leak: true},
	}
	modes := []ProgressMode{Polling, InterruptWait, Threaded}
	for _, mode := range modes {
		for _, n := range []int{64, 8192} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/mode%d/%dB", tc.name, mode, n), func(t *testing.T) {
					r := newRig(t, 2, mode, 1)
					withProgressThreads(t, r, mode)
					dt := datatype.Contiguous(n)
					const tag = 5
					var postedAt, sentAt simtime.Time
					r.run(t, func(rank int, th *simtime.Thread) {
						s := r.stack[rank]
						buf := make([]byte, n)
						switch {
						case tc.self && rank == 0:
							rq := s.Recv(th, 0, tag, 0, buf, dt)
							sq := s.Send(th, 0, tag, 0, pattern(n, 3), dt)
							checkCompletion(t, th, s, sq, tc.complete)
							checkCompletion(t, th, s, rq, tc.complete)
							checkRecv(t, rq, buf, Status{Source: 0, Tag: tag, Len: n})
						case tc.self:
						case rank == 0 && tc.leak:
							s.Send(th, 1, tag, 0, pattern(n, 3), dt)
							s.Finalize(th)
						case rank == 0:
							var sq *SendReq
							if tc.sync {
								sq = s.SendSync(th, 1, tag, 0, pattern(n, 3), dt)
							} else {
								sq = s.Send(th, 1, tag, 0, pattern(n, 3), dt)
							}
							checkCompletion(t, th, s, sq, tc.complete)
							sentAt = th.Proc().Now()
						default:
							if tc.sync {
								th.Proc().Sleep(20 * simtime.Microsecond)
							}
							postedAt = th.Proc().Now()
							rq := s.Recv(th, 0, tag, 0, buf, dt)
							checkCompletion(t, th, s, rq, tc.complete)
							checkRecv(t, rq, buf, Status{Source: 0, Tag: tag, Len: n})
						}
					})
					if tc.sync && sentAt < postedAt {
						t.Errorf("SendSync completed at %v, before the receive was posted at %v", sentAt, postedAt)
					}
					for rank, s := range r.stack {
						st := s.Stats()
						unwaited := int64(0)
						if tc.leak && rank == 0 {
							unwaited = 1
						}
						if got := st.SendStates.Gets - st.SendStates.Puts; got != unwaited {
							t.Errorf("rank %d: %d send states not returned, want %d", rank, got, unwaited)
						}
						if got := st.RecvStates.Gets - st.RecvStates.Puts; got != 0 {
							t.Errorf("rank %d: %d receive states not returned", rank, got)
						}
						if s.PendingSends() != 0 || s.PendingRecvs() != 0 {
							t.Errorf("rank %d: %d sends, %d receives pending", rank, s.PendingSends(), s.PendingRecvs())
						}
					}
				})
			}
		}
	}
}

// checkCompletion completes h the case's way and holds its ID and Done to
// what they were before the state went back.
func checkCompletion(t *testing.T, th *simtime.Thread, s *Stack, h handle, complete func(*simtime.Thread, *Stack, handle)) {
	t.Helper()
	id := h.ID()
	complete(th, s, h)
	if !h.Done() {
		t.Error("request not done after completion")
	}
	if h.ID() != id {
		t.Errorf("ID %d after release, %d before", h.ID(), id)
	}
}

func checkRecv(t *testing.T, rq *RecvReq, buf []byte, want Status) {
	t.Helper()
	if rq.Status() != want {
		t.Errorf("status %+v, want %+v", rq.Status(), want)
	}
	if !bytes.Equal(buf, pattern(want.Len, 3)) {
		t.Error("message corrupted")
	}
}

// TestRequestStateRecycled: the state a completed request hands back is the
// one the next request gets, and the old handle keeps answering with its
// own ID and Status, not the new request's.
func TestRequestStateRecycled(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		s := r.stack[rank]
		if rank == 0 {
			s.Send(th, 1, 1, 0, pattern(16, 3), datatype.Contiguous(16)).Wait(th)
			s.Send(th, 1, 2, 0, pattern(32, 3), datatype.Contiguous(32)).Wait(th)
			return
		}
		puts := s.Stats().RecvStates.Puts
		r1 := s.Recv(th, 0, 1, 0, make([]byte, 16), datatype.Contiguous(16))
		st1, id1 := r1.st, r1.ID()
		r1.Wait(th)
		if got := s.Stats().RecvStates.Puts; got != puts+1 {
			t.Errorf("RecvStates.Puts %d after one Wait, want %d", got, puts+1)
		}
		r2 := s.Recv(th, 0, 2, 0, make([]byte, 32), datatype.Contiguous(32))
		if r2.st != st1 {
			t.Error("the second receive did not reuse the first one's state")
		}
		r2.Wait(th)
		if r1.ID() != id1 || r1.ID() == r2.ID() {
			t.Errorf("old handle ID %d (was %d), new handle %d", r1.ID(), id1, r2.ID())
		}
		if want := (Status{Source: 0, Tag: 1, Len: 16}); r1.Status() != want {
			t.Errorf("old handle status %+v, want %+v", r1.Status(), want)
		}
		if want := (Status{Source: 0, Tag: 2, Len: 32}); r2.Status() != want {
			t.Errorf("new handle status %+v, want %+v", r2.Status(), want)
		}
	})
	if st := r.stack[0].Stats().SendStates; st.Gets != 2 || st.Puts != 2 {
		t.Errorf("send states %+v, want 2 taken and 2 returned", st)
	}
}

// TestIprobeAllocatesNothing: a probe reads the unexpected queue with its
// (source, tag) pair and makes no request.
func TestIprobeAllocatesNothing(t *testing.T) {
	r := newRig(t, 2, Polling, 1)
	r.run(t, func(rank int, th *simtime.Thread) {
		s := r.stack[rank]
		dt := datatype.Contiguous(64)
		if rank == 0 {
			s.Send(th, 1, 9, 0, pattern(64, 3), dt).Wait(th)
			return
		}
		s.Probe(th, 0, 9, 0)
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := s.Iprobe(th, AnySource, 9, 0); !ok {
				t.Error("Iprobe lost the message")
			}
		})
		if allocs != 0 {
			t.Errorf("Iprobe allocates %v objects, want 0", allocs)
		}
		s.Recv(th, 0, 9, 0, make([]byte, 64), dt).Wait(th)
	})
}
