package mpi_test

import (
	"bytes"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/ptlelan4"
)

// launchMode is launch under one row of Table 1 (cluster.Spec.WithProgressRow),
// so the nonblocking-collective schedules are exercised under every mode the
// stack supports — including the module progress threads, which retire
// point-to-point sub-requests while only the app thread's sweeps move a
// schedule between phases.
func launchMode(t testing.TB, n int, row string, fn func(w *mpi.World)) {
	t.Helper()
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	spec, err := cluster.Spec{Elan: &opts, DTP: true}.WithProgressRow(row)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(spec, n)
	uni := mpi.NewUniverse()
	c.Launch(func(p *cluster.Proc) {
		fn(mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, n))
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIbarrier(t *testing.T) {
	const n = 7
	launch(t, n, func(w *mpi.World) {
		// Interleave with pending point-to-point traffic so the barrier
		// schedule shares the matching engine with ordinary sends.
		buf := []byte{byte(w.Rank())}
		dt := datatype.Contiguous(1)
		next, prev := (w.Rank()+1)%n, (w.Rank()+n-1)%n
		got := make([]byte, 1)
		rq := w.Comm().Irecv(prev, 99, got, dt)
		sq := w.Comm().Isend(next, 99, buf, dt)
		br := w.Comm().Ibarrier()
		br.Wait()
		sq.Wait()
		rq.Wait()
		if got[0] != byte(prev) {
			t.Errorf("rank %d ring recv = %d, want %d", w.Rank(), got[0], prev)
		}
	})
}

// TestIbcastMatchesBcast checks the nonblocking broadcast delivers the
// same bytes as its blocking counterpart on the same communicator, with
// the collective tag sequence staying aligned across the mix.
func TestIbcastMatchesBcast(t *testing.T) {
	const n, size = 6, 3000
	launch(t, n, func(w *mpi.World) {
		dt := datatype.Contiguous(size)
		for root := 0; root < n; root++ {
			nb := make([]byte, size)
			bl := make([]byte, size)
			if w.Rank() == root {
				for i := range nb {
					nb[i] = byte(i*7 + root)
					bl[i] = nb[i]
				}
			}
			w.Comm().Ibcast(root, nb, dt).Wait()
			w.Comm().Bcast(root, bl, dt)
			if !bytes.Equal(nb, bl) {
				t.Fatalf("rank %d root %d: Ibcast != Bcast", w.Rank(), root)
			}
		}
	})
}

// TestIallreduceMatchesAllreduce checks bit-for-bit equality of the
// nonblocking allreduce against the blocking one: both run the same
// Reduce-to-0 + Bcast-from-0 combine order, so even non-commutative
// rounding effects agree exactly.
func TestIallreduceMatchesAllreduce(t *testing.T) {
	const n = 5
	for _, row := range []string{"basic", "two-threads"} {
		launchMode(t, n, row, func(w *mpi.World) {
			in := f64buf(float64(w.Rank()+1) * 1.25)
			nb := make([]byte, 8)
			bl := make([]byte, 8)
			w.Comm().Iallreduce(in, nb, mpi.OpSumF64).Wait()
			w.Comm().Allreduce(in, bl, mpi.OpSumF64)
			if !bytes.Equal(nb, bl) {
				t.Fatalf("rank %d %s: Iallreduce %x != Allreduce %x",
					w.Rank(), row, nb, bl)
			}
			want := 0.0
			for r := 1; r <= n; r++ {
				want += float64(r) * 1.25
			}
			if got := f64of(nb); got != want {
				t.Fatalf("rank %d: sum %v, want %v", w.Rank(), got, want)
			}
		})
	}
}

// TestNBCCompletesViaTest drives a nonblocking collective to completion
// with Request.Test alone — no blocking Wait — proving the schedule
// advances from the progress path.
func TestNBCCompletesViaTest(t *testing.T) {
	const n = 4
	launch(t, n, func(w *mpi.World) {
		in := f64buf(float64(w.Rank()))
		out := make([]byte, 8)
		rq := w.Comm().Iallreduce(in, out, mpi.OpSumF64)
		spins := 0
		for !rq.Test() {
			if spins++; spins > 1_000_000 {
				t.Fatalf("rank %d: Iallreduce never completed via Test", w.Rank())
			}
		}
		if got := f64of(out); got != 0+1+2+3 {
			t.Errorf("rank %d: sum %v, want 6", w.Rank(), got)
		}
	})
}

// TestTestAfterCompleteIdempotent pins the Request.Test contract this PR
// fixes: once a request has completed, further Tests return true without
// running another progress sweep, and every Test is counted.
func TestTestAfterCompleteIdempotent(t *testing.T) {
	const n = 2
	launch(t, n, func(w *mpi.World) {
		peer := 1 - w.Rank()
		buf := []byte{9}
		dt := datatype.Contiguous(1)
		var rq *mpi.Request
		if w.Rank() == 0 {
			rq = w.Comm().Isend(peer, 5, buf, dt)
		} else {
			rq = w.Comm().Irecv(peer, 5, buf, dt)
		}
		rq.Wait()
		st := w.Stack()
		polls := st.Stats().ProgressPolls
		tests := st.Stats().Tests
		for i := 0; i < 3; i++ {
			if !rq.Test() {
				t.Fatalf("rank %d: Test false after Wait", w.Rank())
			}
		}
		after := st.Stats()
		if after.ProgressPolls != polls {
			t.Errorf("rank %d: Test after completion ran %d progress sweeps",
				w.Rank(), after.ProgressPolls-polls)
		}
		if after.Tests != tests+3 {
			t.Errorf("rank %d: Tests counter %d, want %d", w.Rank(), after.Tests, tests+3)
		}
		// Wait after Test is equally idempotent.
		rq.Wait()
		if st.Stats().ProgressPolls != polls {
			t.Errorf("rank %d: Wait after completed Test ran progress sweeps", w.Rank())
		}
	})
}

func TestTestany(t *testing.T) {
	const n = 2
	launch(t, n, func(w *mpi.World) {
		peer := 1 - w.Rank()
		dt := datatype.Contiguous(4)
		a, b := make([]byte, 4), make([]byte, 4)
		if w.Rank() == 0 {
			copy(a, "aaaa")
			copy(b, "bbbb")
			ra := w.Comm().Isend(peer, 1, a, dt)
			rb := w.Comm().Isend(peer, 2, b, dt)
			mpi.Waitall(ra, rb)
			return
		}
		ra := w.Comm().Irecv(peer, 1, a, dt)
		rb := w.Comm().Irecv(peer, 2, b, dt)
		left := map[int]bool{0: true, 1: true}
		for len(left) > 0 {
			idx, _, ok := mpi.Testany(ra, rb)
			if !ok {
				continue
			}
			if !left[idx] {
				t.Fatalf("rank 1: Testany returned %d twice", idx)
			}
			delete(left, idx)
			// A finished request drops out of the poll set.
			switch idx {
			case 0:
				ra = nil
			default:
				rb = nil
			}
		}
		if string(a) != "aaaa" || string(b) != "bbbb" {
			t.Fatalf("rank 1: payloads %q %q", a, b)
		}
	})
}

// TestWaitanyLeadingNil: the process is the first non-nil request's, so a
// nil first entry is skipped, not dereferenced.
func TestWaitanyLeadingNil(t *testing.T) {
	launch(t, 2, func(w *mpi.World) {
		dt := datatype.Contiguous(4)
		if w.Rank() == 1 {
			w.Comm().Send(0, 3, []byte("abcd"), dt)
			return
		}
		rq := w.Comm().Irecv(1, 3, make([]byte, 4), dt)
		if i, st := mpi.Waitany(nil, rq); i != 1 || st.Source != 1 || st.Tag != 3 {
			t.Errorf("Waitany(nil, rq) = %d, %+v; want index 1 from rank 1 tag 3", i, st)
		}
	})
}

// TestWaitanyNothing: with no request to wait on, Waitany returns
// (-1, Status{}) at once, as Testany reports it.
func TestWaitanyNothing(t *testing.T) {
	for _, reqs := range [][]*mpi.Request{nil, {nil, nil}} {
		if i, st := mpi.Waitany(reqs...); i != -1 || st != (mpi.Status{}) {
			t.Errorf("Waitany of %d nil requests = %d, %+v; want -1, Status{}", len(reqs), i, st)
		}
	}
}

// TestWaitanyMarksCompleted: the request Waitany returns has completed, so
// a later Test on it runs no progress sweep, as after Wait or Testany.
func TestWaitanyMarksCompleted(t *testing.T) {
	launch(t, 2, func(w *mpi.World) {
		dt := datatype.Contiguous(1)
		if w.Rank() == 1 {
			w.Comm().Send(0, 4, []byte{7}, dt)
			return
		}
		rq := w.Comm().Irecv(1, 4, make([]byte, 1), dt)
		mpi.Waitany(rq)
		polls := w.Stack().Stats().ProgressPolls
		if !rq.Test() {
			t.Fatal("Test false after Waitany returned the request")
		}
		if d := w.Stack().Stats().ProgressPolls - polls; d != 0 {
			t.Errorf("Test after Waitany ran %d progress sweeps, want 0", d)
		}
	})
}

// TestNBCInterruptMode runs the whole NBC family under interrupt-driven
// waits: completion must not deadlock when the waiting thread parks on
// the event queue between sweeps.
func TestNBCInterruptMode(t *testing.T) {
	const n = 4
	launchMode(t, n, "interrupt", func(w *mpi.World) {
		in := f64buf(float64(w.Rank() + 2))
		out := make([]byte, 8)
		buf := make([]byte, 512)
		if w.Rank() == 1 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		w.Comm().Ibarrier().Wait()
		w.Comm().Ibcast(1, buf, datatype.Contiguous(len(buf))).Wait()
		w.Comm().Iallreduce(in, out, mpi.OpSumF64).Wait()
		if got := f64of(out); got != 2+3+4+5 {
			t.Errorf("rank %d: sum %v, want 14", w.Rank(), got)
		}
		for i := range buf {
			if buf[i] != byte(i) {
				t.Fatalf("rank %d: bcast byte %d corrupt", w.Rank(), i)
			}
		}
	})
}

// TestNBCSingleRank pins the degenerate communicator: every operation
// completes at post time without consuming point-to-point traffic.
func TestNBCSingleRank(t *testing.T) {
	launch(t, 1, func(w *mpi.World) {
		if !w.Comm().Ibarrier().Test() {
			t.Error("Ibarrier on 1 rank not complete at post")
		}
		buf := []byte{1, 2, 3}
		if !w.Comm().Ibcast(0, buf, datatype.Contiguous(3)).Test() {
			t.Error("Ibcast on 1 rank not complete at post")
		}
		in, out := f64buf(4.5), make([]byte, 8)
		rq := w.Comm().Iallreduce(in, out, mpi.OpSumF64)
		if !rq.Test() {
			t.Error("Iallreduce on 1 rank not complete at post")
		}
		if f64of(out) != 4.5 {
			t.Errorf("identity allreduce = %v", f64of(out))
		}
		rq.Wait() // still legal after Test
	})
}
