// Watchdog tests: a seeded stall (a receive that can never match) and a
// stall in the middle of a run must be detected and diagnosed alike at
// every shard count, and on clean runs the watchdog must stay silent
// without moving virtual time.
package obs_test

import (
	"reflect"
	"strings"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// window is the stall window of the seeded stalls.
const window = simtime.Millisecond

// TestWatchdogFiresOnSeededStall posts a receive on rank 1 that no send
// will ever match while rank 0 stays idle: the run deadlocks, and the
// watchdog must name the stalled rank with its queue state in the error.
// The report is found at quiescence, the same at every shard count, and
// the watchdog does not advance the clock to date it.
func TestWatchdogFiresOnSeededStall(t *testing.T) {
	var first []obs.StallReport
	var firstNow simtime.Time
	for _, shards := range []int{1, 2, 4} {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		rec := trace.NewRecorder(0)
		wd := obs.NewWatchdog(window)
		c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling, Tracer: rec, Watchdog: wd, Shards: shards}, 2)
		c.Launch(func(p *cluster.Proc) {
			if p.Rank == 1 {
				buf := make([]byte, 64)
				p.Stack.Recv(p.Th, 0, 99, 0, buf, datatype.Contiguous(64)).Wait(p.Th)
			}
		})
		err := c.Run()
		if err == nil {
			t.Fatalf("shards=%d: seeded stall did not deadlock", shards)
		}
		if !strings.Contains(err.Error(), "watchdog: rank 1 stalled") {
			t.Fatalf("shards=%d: deadlock error lacks watchdog diagnostic:\n%v", shards, err)
		}
		stalls := wd.Stalls()
		if len(stalls) != 1 {
			t.Fatalf("shards=%d: stalls = %+v, want exactly one", shards, stalls)
		}
		s := stalls[0]
		if s.Rank != 1 {
			t.Errorf("shards=%d: stalled rank = %d, want 1", shards, s.Rank)
		}
		if s.Diag.PendingRecvs != 1 || s.Diag.PendingSends != 0 {
			t.Errorf("shards=%d: diag queues = %+v, want one pending recv", shards, s.Diag)
		}
		if s.DetectedAt.Sub(s.LastProgress) < window {
			t.Errorf("shards=%d: reported after only %v of silence, window is %v",
				shards, s.DetectedAt.Sub(s.LastProgress), window)
		}
		// With a recorder attached the diagnostic names the rank's last event.
		if len(s.Diag.LastEvents) == 0 {
			t.Errorf("shards=%d: diag has no last-event context despite attached recorder", shards)
		}
		if now := c.Now(); now >= s.LastProgress.Add(window) {
			t.Errorf("shards=%d: the run stopped at %v, the watchdog's window ran out at %v: it kept the kernel going",
				shards, now, s.LastProgress.Add(window))
		}
		if first == nil {
			first, firstNow = stalls, c.Now()
			continue
		}
		if !reflect.DeepEqual(stalls, first) {
			t.Errorf("shards=%d: stalls\n%+v\nwant (shards=1)\n%+v", shards, stalls, first)
		}
		if c.Now() != firstNow {
			t.Errorf("shards=%d: the run stopped at %v, at shards=1 at %v", shards, c.Now(), firstNow)
		}
	}
}

// TestWatchdogMidRunStall stalls rank 1 in the middle of a run that
// completes: it waits on a send that rank 0 makes only after 3 ms of
// compute. The tick must report it once its window has run out, with the
// same report at every shard count, and its last events must come from the
// stream merged after the run, none after the detection.
func TestWatchdogMidRunStall(t *testing.T) {
	var first []obs.StallReport
	for _, shards := range []int{1, 2, 4} {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		rec := trace.NewRecorder(0)
		wd := obs.NewWatchdog(window)
		c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling, Tracer: rec, Watchdog: wd, Shards: shards}, 4)
		c.Launch(func(p *cluster.Proc) {
			buf, dt := make([]byte, 64), datatype.Contiguous(64)
			switch p.Rank {
			case 0:
				p.Th.Compute(3 * simtime.Millisecond)
				p.Stack.Send(p.Th, 1, 5, 0, buf, dt).Wait(p.Th)
			case 1:
				p.Stack.Recv(p.Th, 0, 5, 0, buf, dt).Wait(p.Th)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		stalls := wd.Stalls()
		if len(stalls) != 1 || stalls[0].Rank != 1 {
			t.Fatalf("shards=%d: stalls = %+v, want one, of rank 1", shards, stalls)
		}
		s := stalls[0]
		if s.DetectedAt.Sub(s.LastProgress) < window {
			t.Errorf("shards=%d: reported after only %v of silence, window is %v",
				shards, s.DetectedAt.Sub(s.LastProgress), window)
		}
		if len(s.Diag.LastEvents) == 0 {
			t.Errorf("shards=%d: diag has no last-event context despite attached recorder", shards)
		}
		for _, le := range s.Diag.LastEvents {
			if le.At > s.DetectedAt {
				t.Errorf("shards=%d: last event %+v comes after the detection at %v", shards, le, s.DetectedAt)
			}
		}
		if first == nil {
			first = stalls
		} else if !reflect.DeepEqual(stalls, first) {
			t.Errorf("shards=%d: stalls\n%+v\nwant (shards=1)\n%+v", shards, stalls, first)
		}
	}
}

// TestWatchdogSilentOnCleanRuns attaches the watchdog to ordinary
// exchanges on every protocol path: no stalls may be reported, and the
// run's protocol timeline and final virtual time must be bit-identical to
// the same run without a watchdog — the zero-perturbation guarantee.
func TestWatchdogSilentOnCleanRuns(t *testing.T) {
	run := func(scheme ptlelan4.Scheme, size int, wd *obs.Watchdog) *trace.Recorder {
		o := ptlelan4.BestOptions(scheme)
		rec := trace.NewRecorder(0)
		c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling, Tracer: rec, Watchdog: wd}, 2)
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(size)
			if p.Rank == 0 {
				p.Stack.Send(p.Th, 1, 0, 0, make([]byte, size), dt).Wait(p.Th)
			} else {
				p.Stack.Recv(p.Th, 0, 0, 0, make([]byte, size), dt).Wait(p.Th)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	last := func(rec *trace.Recorder) simtime.Time {
		evs := rec.Events()
		if len(evs) == 0 {
			t.Fatal("no events recorded")
		}
		return evs[len(evs)-1].At
	}
	for _, scheme := range []ptlelan4.Scheme{ptlelan4.RDMARead, ptlelan4.RDMAWrite} {
		for _, size := range []int{256, 4096, 65536} {
			wd := obs.NewWatchdog(0)
			watched := run(scheme, size, wd)
			plain := run(scheme, size, nil)
			if got := wd.Stalls(); len(got) != 0 {
				t.Errorf("scheme %v size %d: spurious stalls %+v", scheme, size, got)
			}
			if wd.Render() != "" {
				t.Errorf("scheme %v size %d: non-empty render on clean run", scheme, size)
			}
			if lw, lp := last(watched), last(plain); lw != lp {
				t.Errorf("scheme %v size %d: watchdog moved virtual time: %v vs %v",
					scheme, size, lw, lp)
			}
			if watched.Len() != plain.Len() {
				t.Errorf("scheme %v size %d: event count changed: %d vs %d",
					scheme, size, watched.Len(), plain.Len())
			}
		}
	}
}
