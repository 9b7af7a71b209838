package trace_test

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

const (
	eventSize = uint64(unsafe.Sizeof(trace.Event{}))
	blockSize = 4096 * eventSize // the recorder's largest block
)

func probeEvent(i int) trace.Event {
	return trace.Event{At: simtime.Time(i), Rank: i & 15, Layer: trace.LayerPML, Kind: trace.SendPosted,
		ReqID: uint64(i), Peer: 1, Tag: 7, Bytes: 4096, Corr: trace.MsgID(i&15, uint64(i))}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecorderNeverCopies: a recorded event is written once. Recording n
// events allocates their own bytes and at most one block more — nothing is
// regrown, nothing copied on the way up — and in the steady state the only
// allocation is the next block when one fills.
func TestRecorderNeverCopies(t *testing.T) {
	const n = 300_000
	rec := trace.NewRecorder(0)
	bytes := allocated(func() {
		for i := 0; i < n; i++ {
			rec.Record(probeEvent(i))
		}
	})
	if limit := n*eventSize*105/100 + blockSize; bytes > limit {
		t.Errorf("recording %d events allocated %d bytes, want at most %d: the stream was copied", n, bytes, limit)
	}
	// Blocks of 64 … 2048 hold 4032 events and every later one 4096, so the
	// last block has 3040 free slots here, and still has after any number of
	// whole blocks more.
	if perBlock := testing.AllocsPerRun(20, func() {
		for i := 0; i < 4096; i++ {
			rec.Record(probeEvent(i))
		}
	}); perBlock != 1 {
		t.Errorf("recording a block's worth of events made %.0f allocations, want 1", perBlock)
	}
	if within := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			rec.Record(probeEvent(i))
		}
	}); within != 0 {
		t.Errorf("recording inside a block made %.0f allocations", within)
	}
}

// TestLimitIsOnlyALimit: a bounded recorder pays for the events it holds,
// not for the events it may hold.
func TestLimitIsOnlyALimit(t *testing.T) {
	var rec *trace.Recorder
	bytes := allocated(func() {
		rec = trace.NewRecorder(1 << 40)
		for i := 0; i < 10; i++ {
			rec.Record(probeEvent(i))
		}
	})
	if rec.Len() != 10 || rec.Dropped() != 0 || bytes >= blockSize {
		t.Fatalf("a recorder with room for 2^40 events holds %d, dropped %d and allocated %d bytes for them", rec.Len(), rec.Dropped(), bytes)
	}
}

// diffRecorder records n seeded events into a recorder bounded to limit
// and holds every read path to a plain slice filled by the same rule. One
// stream in three is in time order, as a simulation records it; the others
// have instants drawn from so few values that they are out of order and
// full of ties.
func diffRecorder(t *testing.T, seed int64, n, limit int) {
	rng := rand.New(rand.NewSource(seed))
	inOrder := rng.Intn(3) == 0
	rec := trace.NewRecorder(limit)
	var want []trace.Event
	dropped := int64(0)
	for i := 0; i < n; i++ {
		e := trace.Event{At: simtime.Time(rng.Intn(50)), Rank: rng.Intn(16), Layer: trace.Layer(rng.Intn(6)),
			Kind: trace.Kind(1 + rng.Intn(30)), ReqID: uint64(i), Peer: rng.Intn(16), Tag: rng.Intn(8), Bytes: rng.Intn(1 << 16)}
		if inOrder {
			e.At = simtime.Time(i / 3)
		}
		rec.Record(e)
		if limit > 0 && len(want) >= limit {
			dropped++
		} else {
			want = append(want, e)
		}
	}
	if rec.Len() != len(want) || rec.Dropped() != dropped {
		t.Fatalf("Len %d, Dropped %d; want %d and %d", rec.Len(), rec.Dropped(), len(want), dropped)
	}
	got := rec.Events()
	if !slices.Equal(got, want) || (len(want) == 0) != (got == nil) {
		t.Fatalf("Events() returns %d events (nil: %v), want the %d recorded", len(got), got == nil, len(want))
	}
	if !slices.Equal(slices.Collect(rec.All()), want) {
		t.Fatal("All() differs from the recorded stream")
	}
	if len(want) > 0 {
		stop, seen := rng.Intn(len(want)), 0
		for e := range rec.All() {
			if e != want[seen] {
				t.Fatalf("All() yields %+v at %d, want %+v", e, seen, want[seen])
			}
			if seen++; seen > stop {
				break
			}
		}
		if seen != stop+1 {
			t.Fatalf("a walk broken at event %d visited %d", stop, seen)
		}
	}
	if !slices.Equal(slices.Collect(rec.Ordered()), trace.Ordered(want)) {
		t.Fatal("Ordered() differs from Ordered(events)")
	}
	if !slices.Equal(rec.Events(), want) {
		t.Fatal("the ordered walk sorted the recorder's own stream")
	}
	byKind := make(map[trace.Kind]int)
	for _, e := range want {
		byKind[e.Kind]++
	}
	if !maps.Equal(rec.ByKind(), byKind) {
		t.Fatalf("ByKind() = %v, want %v", rec.ByKind(), byKind)
	}
	if rec.Render() != trace.RenderEvents(want, dropped) {
		t.Fatal("Render() differs from RenderEvents of the recorded stream")
	}
}

// FuzzRecorderMatchesSlice is the recorder's differential test. Its seed
// corpus, which plain `go test` runs, puts every limit on both sides of a
// block boundary: streams that end inside the first block, at its last
// slot, one past it, and well into the blocks of the largest size.
func FuzzRecorderMatchesSlice(f *testing.F) {
	for _, limit := range []uint16{0, 1, 63, 64, 65, 5000} {
		for seed, n := range []uint16{0, 1, 64, 65, 200, 4032, 4033, 13_000} {
			f.Add(int64(seed)+int64(limit)<<8, n, limit)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n, limit uint16) {
		diffRecorder(t, seed, int(n%16384), int(limit))
	})
}

// BenchmarkRecord is the in-tree twin of the benchmark's trace.record_ns
// probe: ns and bytes per recorded event over streams of a million.
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	var rec *trace.Recorder
	for i := 0; i < b.N; i++ {
		if i%1_000_000 == 0 {
			rec = trace.NewRecorder(0)
		}
		rec.Record(probeEvent(i))
	}
}
