package mpichq_test

import (
	"bytes"
	"testing"

	"qsmpi/internal/mpichq"
	"qsmpi/internal/simtime"
)

func TestJobRing(t *testing.T) {
	const n = 8
	j := mpichq.NewJob(n)
	verified := 0
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		if c.Rank() != rank || c.Size() != n {
			t.Errorf("rank/size wrong: %d/%d", c.Rank(), c.Size())
		}
		msg := bytes.Repeat([]byte{byte(rank)}, 4096)
		got := make([]byte, 4096)
		next := (rank + 1) % n
		prev := (rank + n - 1) % n
		h := c.Irecv(th, prev, 0, got)
		c.Send(th, next, 0, msg)
		h.Wait(th)
		if got[0] == byte(prev) && got[4095] == byte(prev) {
			verified++
		}
	})
	if err := j.Run(); err != nil {
		t.Fatal(err)
	}
	if verified != n {
		t.Fatalf("%d ranks verified", verified)
	}
}

func TestJobDeadlockDetection(t *testing.T) {
	j := mpichq.NewJob(2)
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		if rank == 0 {
			c.Recv(th, 1, 0, make([]byte, 4)) // never sent
		}
	})
	if err := j.Run(); err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestStaticPoolRejectsOutOfRange(t *testing.T) {
	j := mpichq.NewJob(2)
	panicked := false
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		if rank != 0 {
			return
		}
		defer func() { panicked = recover() != nil }()
		c.Send(th, 5, 0, []byte{1}) // outside the static pool
	})
	_ = j.Run()
	if !panicked {
		t.Fatal("send outside the static pool did not panic")
	}
}

func TestNICSideMatchingLeavesHostIdle(t *testing.T) {
	// Tport matches on the NIC: a receive posted into the NIC table and
	// satisfied by an incoming eager message must not consume host CPU
	// beyond the post/wait costs. Compare busy time with the wait time.
	j := mpichq.NewJob(2)
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		if rank == 0 {
			th.Proc().Sleep(500 * simtime.Microsecond)
			c.Send(th, 1, 0, []byte{1})
		} else {
			c.Recv(th, 0, 0, make([]byte, 4))
		}
	})
	if err := j.Run(); err != nil {
		t.Fatal(err)
	}
	// Rank 1's host waited ~500us but must have been busy only for
	// microseconds (post + completion poll), since matching ran on the NIC.
	busy := j.Hosts[1].BusyTime().Micros()
	if busy > 20 {
		t.Fatalf("receiver host busy %.1fus during a NIC-matched receive", busy)
	}
	if j.Eps[1].Stats().NICMatches == 0 {
		t.Fatal("no NIC matches recorded")
	}
}

func TestEagerLimitBoundary(t *testing.T) {
	j := mpichq.NewJob(2)
	lim := 0
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		if rank == 0 {
			lim = j.Eps[0].EagerLimit()
			c.Send(th, 1, 0, make([]byte, lim))   // largest eager
			c.Send(th, 1, 1, make([]byte, lim+1)) // smallest rendezvous
		} else {
			l := j.Eps[1].EagerLimit()
			c.Recv(th, 0, 0, make([]byte, l))
			c.Recv(th, 0, 1, make([]byte, l+1))
		}
	})
	if err := j.Run(); err != nil {
		t.Fatal(err)
	}
	st := j.Eps[0].Stats()
	if st.EagerTx != 1 || st.RndvTx != 1 {
		t.Fatalf("eager/rndv split at the boundary wrong: %+v", st)
	}
}
