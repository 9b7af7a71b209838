package cluster_test

import (
	"cmp"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// observedRun is the benchmark's observed-16 workload at a tenth of its
// length: 16 ranks pass 4 KB round a ring and allreduce, 20 times over,
// with a tracer, a metrics registry, a 5 µs sampler and a watchdog attached
// (or, plain, with none of them), each rank skewed by under a microsecond
// an iteration as the benchmark skews them. It returns the bytes Run
// allocated.
func observedRun(t *testing.T, shards int, rec *trace.Recorder) uint64 {
	t.Helper()
	const ranks, msg, iters = 16, 4 << 10, 20
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	spec := cluster.Spec{Elan: &o, Progress: pml.Polling, Shards: shards}
	if rec != nil {
		spec.Tracer, spec.Metrics = rec, obs.New()
		spec.Sampler = obs.NewSampler(5*simtime.Microsecond, 0)
		spec.Watchdog = obs.NewWatchdog(500 * simtime.Microsecond)
	}
	c := cluster.New(spec, ranks)
	uni, dt := mpi.NewUniverse(), datatype.Contiguous(msg)
	c.Launch(func(p *cluster.Proc) {
		me := p.Rank
		comm := mpi.NewWorld(p.Th, p.Stack, uni, me, ranks).Comm()
		send, recv := make([]byte, msg), make([]byte, msg)
		in, sum := make([]byte, 8), make([]byte, 8)
		for i := 0; i < iters; i++ {
			p.Th.Compute(simtime.Duration((me*389+i*211)%997) * simtime.Nanosecond)
			rq := comm.Irecv((me+ranks-1)%ranks, 7, recv, dt)
			comm.Send((me+1)%ranks, 7, send, dt)
			rq.Wait()
			comm.Allreduce(in, sum, mpi.OpSumF64)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestObservedRunPaysForItsEventsOnce holds the whole observability path
// to its write cost. With everything attached, Run allocates what the plain
// run allocates plus 1.4 times the bytes of the recorded events: the event
// itself, the cell in the sampler's rows behind three events in four (with
// the rows' own doubling), and the slack of the last block. Recopying the
// stream as it grows read 3.6. Under a sharded kernel an event is written
// twice, into its node's recorder and then merged into the tracer, and each
// of the sixteen short per-node streams ends inside a block it has not
// filled: 2.9 measured, 3.3 with recopying.
//
// The sharded run records the same events at the same instants. Events of
// one instant on different nodes merge in node order where the unsharded
// kernel records them in scheduling order, and the sampler's tail is as long
// as the watchdog keeps the kernel alive, which without worker shards is up
// to one window and with them is not at all; so the streams are compared
// without samples, in a canonical order within each instant.
func TestObservedRunPaysForItsEventsOnce(t *testing.T) {
	var streams [][]trace.Event
	for _, tc := range []struct {
		shards int
		budget float64
	}{{1, 1.4}, {2, 3.1}} {
		plain := observedRun(t, tc.shards, nil)
		rec := trace.NewRecorder(0)
		observed := observedRun(t, tc.shards, rec)
		events := uint64(rec.Len()) * uint64(unsafe.Sizeof(trace.Event{}))
		if rec.Len() < 20_000 {
			t.Fatalf("shards=%d: a stream of %d events is too short to tell a copy from the slack", tc.shards, rec.Len())
		}
		if limit := plain + uint64(tc.budget*float64(events)); observed > limit {
			t.Errorf("shards=%d: the observed run allocated %d bytes, want at most %d (the plain run's %d + %.1f × %d of events)",
				tc.shards, observed, limit, plain, tc.budget, events)
		}
		evs := slices.DeleteFunc(rec.Events(), func(e trace.Event) bool { return e.Kind == trace.GaugeSample })
		slices.SortFunc(evs, func(a, b trace.Event) int {
			return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Layer, b.Layer),
				cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.ReqID, b.ReqID), cmp.Compare(a.Peer, b.Peer),
				cmp.Compare(a.Tag, b.Tag), cmp.Compare(a.Bytes, b.Bytes), cmp.Compare(a.Corr, b.Corr))
		})
		streams = append(streams, evs)
	}
	if !slices.Equal(streams[0], streams[1]) {
		t.Errorf("the stream merged from per-node recorders (%d events) differs from the unsharded one (%d)", len(streams[1]), len(streams[0]))
	}
}
