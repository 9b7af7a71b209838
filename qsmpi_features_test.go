package qsmpi_test

import (
	"bytes"
	"testing"

	"qsmpi"
)

func TestSsendCompletesOnlyAfterMatch(t *testing.T) {
	var sendDone, recvPosted float64
	err := qsmpi.Run(qsmpi.Config{Procs: 2}, func(w *qsmpi.World) {
		c := w.Comm()
		if w.Rank() == 0 {
			c.Ssend(1, 0, []byte{1, 2, 3, 4}, qsmpi.Contiguous(4))
			sendDone = w.NowMicros()
		} else {
			// Delay the matching receive well past eager delivery time.
			w.Sleep(500)
			recvPosted = w.NowMicros()
			buf := make([]byte, 4)
			c.RecvBytes(0, 0, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A plain Send of 4 bytes would buffer and complete in microseconds;
	// Ssend must wait for the match at ≈500us.
	if sendDone < recvPosted {
		t.Fatalf("Ssend completed at %.1fus, before the receive was posted at %.1fus",
			sendDone, recvPosted)
	}
}

func TestSsendDataIntegrity(t *testing.T) {
	err := qsmpi.Run(qsmpi.Config{Procs: 2}, func(w *qsmpi.World) {
		c := w.Comm()
		if w.Rank() == 0 {
			c.Ssend(1, 0, pattern(100000, 6), qsmpi.Contiguous(100000))
		} else {
			buf := make([]byte, 100000)
			c.RecvBytes(0, 0, buf)
			if !bytes.Equal(buf, pattern(100000, 6)) {
				t.Error("Ssend payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistentRequests(t *testing.T) {
	const rounds = 5
	err := qsmpi.Run(qsmpi.Config{Procs: 2}, func(w *qsmpi.World) {
		c := w.Comm()
		buf := make([]byte, 64)
		if w.Rank() == 0 {
			ps := c.SendInit(1, 3, buf, qsmpi.Contiguous(64))
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = byte(r)
				}
				ps.Start()
				ps.Wait()
			}
		} else {
			pr := c.RecvInit(0, 3, buf, qsmpi.Contiguous(64))
			for r := 0; r < rounds; r++ {
				pr.Start()
				st := pr.Wait()
				if st.Len != 64 || buf[0] != byte(r) || buf[63] != byte(r) {
					t.Errorf("round %d: got %d/%d", r, buf[0], st.Len)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func bcastTime(t *testing.T, hw bool, procs, size int) float64 {
	t.Helper()
	var last float64
	err := qsmpi.Run(qsmpi.Config{Procs: procs, HWBcast: hw}, func(w *qsmpi.World) {
		buf := make([]byte, size)
		if w.Rank() == 0 {
			copy(buf, pattern(size, 8))
		}
		w.Comm().Barrier()
		w.Comm().Bcast(0, buf, qsmpi.Contiguous(size))
		if !bytes.Equal(buf, pattern(size, 8)) {
			t.Errorf("rank %d: bcast data wrong (hw=%v)", w.Rank(), hw)
		}
		if at := w.NowMicros(); at > last {
			last = at
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return last
}

func TestHWBcastCorrectAndFaster(t *testing.T) {
	const procs, size = 8, 8192
	sw := bcastTime(t, false, procs, size)
	hw := bcastTime(t, true, procs, size)
	if hw >= sw {
		t.Fatalf("hardware bcast (%.1fus) not faster than software tree (%.1fus)", hw, sw)
	}
	t.Logf("8KB bcast to %d ranks: software %.1fus, hardware %.1fus", procs, sw, hw)
}

func TestHWBcastDisabledAfterSpawn(t *testing.T) {
	// Once the world grows, the hardware path must silently fall back to
	// the software tree (the §4.1 constraint) and still be correct.
	err := qsmpi.Run(qsmpi.Config{Procs: 2, Nodes: 3, HWBcast: true}, func(w *qsmpi.World) {
		// Use the hardware path once while static.
		buf := make([]byte, 1024)
		if w.Rank() == 0 {
			copy(buf, pattern(1024, 1))
		}
		w.Comm().Bcast(0, buf, qsmpi.Contiguous(1024))
		if !bytes.Equal(buf, pattern(1024, 1)) {
			t.Error("static-world bcast wrong")
		}
		// Grow the world; the joiner participates in the next bcast.
		w.Spawn(1, func(cw *qsmpi.World) {
			b := make([]byte, 1024)
			cw.Comm().Bcast(0, b, qsmpi.Contiguous(1024))
			if !bytes.Equal(b, pattern(1024, 2)) {
				t.Error("joiner missed the post-spawn bcast")
			}
		})
		buf2 := make([]byte, 1024)
		if w.Rank() == 0 {
			copy(buf2, pattern(1024, 2))
		}
		w.Comm().Bcast(0, buf2, qsmpi.Contiguous(1024))
		if !bytes.Equal(buf2, pattern(1024, 2)) {
			t.Error("post-spawn bcast wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldGoThreadMultiple(t *testing.T) {
	// Two application threads per rank: one communicates while the other
	// computes, MPI_THREAD_MULTIPLE style.
	err := qsmpi.Run(qsmpi.Config{Procs: 2}, func(w *qsmpi.World) {
		var commDone, computeDone float64
		wait := w.Go("comm", func(tw *qsmpi.World) {
			c := tw.Comm()
			buf := make([]byte, 65536)
			if tw.Rank() == 0 {
				c.SendBytes(1, 0, pattern(65536, 1))
				c.RecvBytes(1, 1, buf)
			} else {
				c.RecvBytes(0, 0, buf)
				c.SendBytes(0, 1, pattern(65536, 1))
			}
			commDone = tw.NowMicros()
		})
		w.Compute(300)
		computeDone = w.NowMicros()
		wait()
		// With two CPUs per node the exchange overlaps the computation.
		if commDone > computeDone+100 {
			t.Errorf("rank %d: comm thread finished at %.1f, compute at %.1f — no overlap",
				w.Rank(), commDone, computeDone)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldGoSendFromTwoThreads(t *testing.T) {
	err := qsmpi.Run(qsmpi.Config{Procs: 2}, func(w *qsmpi.World) {
		c := w.Comm()
		if w.Rank() == 0 {
			wait := w.Go("second-sender", func(tw *qsmpi.World) {
				tw.Comm().SendBytes(1, 2, pattern(2048, 2))
			})
			c.SendBytes(1, 1, pattern(2048, 1))
			wait()
		} else {
			a := make([]byte, 2048)
			b := make([]byte, 2048)
			ra := c.Irecv(0, 1, a, qsmpi.Contiguous(2048))
			rb := c.Irecv(0, 2, b, qsmpi.Contiguous(2048))
			ra.Wait()
			rb.Wait()
			if !bytes.Equal(a, pattern(2048, 1)) || !bytes.Equal(b, pattern(2048, 2)) {
				t.Error("threaded sends corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoCQPollFromTwoThreads: under NoCQ the rendezvous descriptors of
// three 64 KiB messages are polled by whichever of rank 1's two threads
// sweeps. The second thread starts its receive at every quarter
// microsecond from 0 to 40 µs, so its sweeps overlap the main thread's
// at every phase: a descriptor appended while the other thread sleeps in
// a poll must not be dropped, nor one completed twice.
func TestNoCQPollFromTwoThreads(t *testing.T) {
	const size = 64 << 10
	for q := 0; q < 160; q++ {
		delay := float64(q) / 4
		err := qsmpi.Run(qsmpi.Config{Procs: 2}, func(w *qsmpi.World) {
			c := w.Comm()
			if w.Rank() == 0 {
				var reqs []*qsmpi.Request
				for tag := 1; tag <= 3; tag++ {
					reqs = append(reqs, c.Isend(1, tag, pattern(size, byte(tag)), qsmpi.Contiguous(size)))
				}
				qsmpi.Waitall(reqs...)
				return
			}
			got := make([][]byte, 4)
			wait := w.Go("second", func(tw *qsmpi.World) {
				tw.Sleep(delay)
				got[2] = make([]byte, size)
				tw.Comm().RecvBytes(0, 2, got[2])
			})
			for _, tag := range []int{1, 3} {
				got[tag] = make([]byte, size)
				c.RecvBytes(0, tag, got[tag])
			}
			wait()
			for tag := 1; tag <= 3; tag++ {
				if !bytes.Equal(got[tag], pattern(size, byte(tag))) {
					t.Errorf("second thread after %.2f us: tag %d corrupted", delay, tag)
				}
			}
		})
		if err != nil {
			t.Fatalf("second thread after %.2f us: %v", delay, err)
		}
	}
}

func TestWaitany(t *testing.T) {
	err := qsmpi.Run(qsmpi.Config{Procs: 3}, func(w *qsmpi.World) {
		c := w.Comm()
		switch w.Rank() {
		case 0:
			// Two receives; rank 2 answers first (rank 1 delays).
			b1 := make([]byte, 8)
			b2 := make([]byte, 8)
			r1 := c.Irecv(1, 0, b1, qsmpi.Contiguous(8))
			r2 := c.Irecv(2, 0, b2, qsmpi.Contiguous(8))
			idx, st := qsmpi.Waitany(r1, r2)
			if idx != 1 || st.Source != 2 {
				t.Errorf("first completion idx=%d src=%d, want the rank-2 receive", idx, st.Source)
			}
			qsmpi.Waitall(r1, r2)
		case 1:
			w.Sleep(500)
			c.SendBytes(0, 0, pattern(8, 1))
		case 2:
			c.SendBytes(0, 0, pattern(8, 2))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTraced(t *testing.T) {
	out, err := qsmpi.RunTraced(qsmpi.Config{Procs: 2}, 0, func(w *qsmpi.World) {
		c := w.Comm()
		if w.Rank() == 0 {
			c.SendBytes(1, 0, pattern(4096, 1))
		} else {
			buf := make([]byte, 4096)
			c.RecvBytes(0, 0, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"send-posted", "recv-posted", "matched", "recv-completed"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestLargeScale64Ranks(t *testing.T) {
	// 64 ranks on a three-level fat tree: a barrier, an allreduce and a
	// neighbour exchange all complete and agree.
	const n = 64
	err := qsmpi.Run(qsmpi.Config{Procs: n}, func(w *qsmpi.World) {
		c := w.Comm()
		c.Barrier()
		in := make([]byte, 8)
		in[0] = 1
		out := make([]byte, 8)
		c.Allreduce(in, out, qsmpi.OpSumI64)
		if out[0] != n {
			t.Errorf("rank %d: allreduce = %d", w.Rank(), out[0])
		}
		next := (w.Rank() + 1) % n
		prev := (w.Rank() + n - 1) % n
		got := make([]byte, 2048)
		c.Sendrecv(next, 1, pattern(2048, byte(w.Rank())), qsmpi.Contiguous(2048),
			prev, 1, got, qsmpi.Contiguous(2048))
		if !bytes.Equal(got, pattern(2048, byte(prev))) {
			t.Errorf("rank %d ring exchange corrupted", w.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicRMAWindow(t *testing.T) {
	err := qsmpi.Run(qsmpi.Config{Procs: 3}, func(w *qsmpi.World) {
		base := make([]byte, 1024)
		win := w.Comm().WinCreate(base)
		next := (w.Rank() + 1) % 3
		win.Put(next, 0, pattern(256, byte(w.Rank())))
		win.Fence()
		prev := (w.Rank() + 2) % 3
		if !bytes.Equal(base[:256], pattern(256, byte(prev))) {
			t.Errorf("rank %d window missing put from %d", w.Rank(), prev)
		}
		got := make([]byte, 256)
		win.Get(prev, 0, got)
		win.Fence()
		// prev's window holds prev-1's signature.
		pp := (prev + 2) % 3
		if !bytes.Equal(got, pattern(256, byte(pp))) {
			t.Errorf("rank %d get from %d wrong", w.Rank(), prev)
		}
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProgressThreadsPickTheirQueue: ProgressThreads alone is a complete
// configuration (the completion queue follows from the thread count and
// gives the same run as naming it), and a thread count Table 1 does not
// have, or a completion queue the threads cannot use, is an error from Run.
func TestProgressThreadsPickTheirQueue(t *testing.T) {
	pingPong := func(cfg qsmpi.Config) (lat float64, err error) {
		err = qsmpi.Run(cfg, func(w *qsmpi.World) {
			c := w.Comm()
			buf := make([]byte, 4096)
			if w.Rank() == 0 {
				c.SendBytes(1, 0, buf)
				c.RecvBytes(1, 1, buf)
				lat = w.NowMicros()
			} else {
				c.RecvBytes(0, 0, buf)
				c.SendBytes(0, 1, buf)
			}
		})
		return lat, err
	}
	for threads, cq := range map[int]qsmpi.CQMode{1: qsmpi.OneQueue, 2: qsmpi.TwoQueue} {
		implied, err := pingPong(qsmpi.Config{Procs: 2, ProgressThreads: threads})
		if err != nil {
			t.Fatalf("ProgressThreads %d: %v", threads, err)
		}
		named, err := pingPong(qsmpi.Config{Procs: 2, ProgressThreads: threads, CQ: cq})
		if err != nil || implied != named {
			t.Errorf("ProgressThreads %d: %.2fus with the queue implied, %.2fus with it named (%v)", threads, implied, named, err)
		}
	}
	if _, err := pingPong(qsmpi.Config{Procs: 2, ProgressThreads: 3}); err == nil {
		t.Error("ProgressThreads 3: no error")
	}
	if _, err := pingPong(qsmpi.Config{Procs: 2, ProgressThreads: 1, CQ: qsmpi.TwoQueue}); err == nil {
		t.Error("one progress thread on the two-queue completion queue: no error")
	}
}

// TestConfigsThatCannotRunAreErrors: each of these Configs once panicked,
// deadlocked or ran without complaint; Run now returns Validate's error
// without running the program, so none can panic or deadlock.
func TestConfigsThatCannotRunAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  qsmpi.Config
	}{
		{"eager limit past the QDMA slot", qsmpi.Config{EagerLimit: 5000}},                       // panicked: eager limit exceeds QDMA slot capacity
		{"one thread on two queues", qsmpi.Config{ProgressThreads: 1, CQ: qsmpi.TwoQueue}},       // panicked in ptlelan4.New
		{"negative nodes", qsmpi.Config{Nodes: -1}},                                              // panicked: fabric: need at least one port
		{"threaded without threads", qsmpi.Config{Progress: qsmpi.Threaded}},                     // deadlocked
		{"interrupt on NoCQ", qsmpi.Config{Progress: qsmpi.Interrupt}},                           // deadlocked
		{"interrupt on two queues", qsmpi.Config{Progress: qsmpi.Interrupt, CQ: qsmpi.TwoQueue}}, // deadlocked
		{"interrupt beside TCP", qsmpi.Config{Progress: qsmpi.Interrupt, EnableTCP: true}},       // deadlocked
		{"negative eager limit", qsmpi.Config{EagerLimit: -5}},                                   // ran without complaint
		{"completion queue 7", qsmpi.Config{CQ: 7}},                                              // ran as OneQueue
		{"scheme 5", qsmpi.Config{Scheme: 5}},                                                    // ran as the read scheme
		{"progress mode 9", qsmpi.Config{Progress: 9}},                                           // ran as polling
		{"negative TCP weight", qsmpi.Config{EnableTCP: true, TCPWeight: -1}},                    // ran without complaint
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Procs = 2
			ran := false
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Run panicked: %v", p)
					}
				}()
				err = qsmpi.Run(tc.cfg, func(w *qsmpi.World) {
					ran = true
					c := w.Comm()
					buf := make([]byte, 4096)
					if w.Rank() == 0 {
						c.SendBytes(1, 0, buf)
						c.RecvBytes(1, 1, buf)
					} else {
						c.RecvBytes(0, 0, buf)
						c.SendBytes(0, 1, buf)
					}
				})
			}()
			verr := tc.cfg.Validate()
			if err == nil || verr == nil || err.Error() != verr.Error() || ran {
				t.Fatalf("Run = %v (program ran: %v), want Validate's error %v before anything runs", err, ran, verr)
			}
		})
	}
}
