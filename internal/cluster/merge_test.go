package cluster

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// linearMerge is the merge mergeTraces replaced, kept as its reference:
// for every output event, scan every node's cursor for the earliest head,
// the lowest node winning a tie.
func linearMerge(nodes [][]trace.Event) []trace.Event {
	next := make([]int, len(nodes))
	var out []trace.Event
	for {
		best := -1
		for i, evs := range nodes {
			if next[i] < len(evs) && (best < 0 || evs[next[i]].At < nodes[best][next[best]].At) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, nodes[best][next[best]])
		next[best]++
	}
}

// seededNodeStreams builds per-node recorders the way a sharded run fills
// them — each node's stream in its own time order — with instants drawn
// from so few values that most events tie with events of other nodes (and
// of their own). ReqID numbers an event within its node, so two streams
// compare equal only if every tie was broken the same way.
func seededNodeStreams(seed int64, nodes, perNode int) []*trace.Recorder {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*trace.Recorder, nodes)
	for node := range recs {
		recs[node] = trace.NewRecorder(0)
		at := simtime.Time(0)
		for i, n := 0, rng.Intn(perNode+1); i < n; i++ { // some nodes stay empty
			at += simtime.Time(rng.Intn(3)) // 0: same instant as the last
			recs[node].Record(trace.Event{At: at, Rank: node, ReqID: uint64(i), Kind: trace.PktSent})
		}
	}
	return recs
}

func TestMergeTracesMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct{ nodes, perNode int }{{1, 50}, {2, 1}, {7, 40}, {64, 200}, {300, 9}} {
		for seed := int64(1); seed <= 5; seed++ {
			recs := seededNodeStreams(seed, tc.nodes, tc.perNode)
			streams := make([][]trace.Event, len(recs))
			for i, r := range recs {
				streams[i] = r.Events()
			}
			want := linearMerge(streams)

			c := &Cluster{nodeRecs: recs}
			c.spec.Tracer = trace.NewRecorder(0)
			c.mergeTraces()
			if got := c.spec.Tracer.Events(); !slices.Equal(got, want) {
				t.Fatalf("%d nodes, seed %d: heap merge of %d events differs from the linear scan", tc.nodes, seed, len(want))
			}
			if c.nodeRecs != nil {
				t.Fatal("per-node recorders kept after the merge")
			}
		}
	}
}

// A bounded destination keeps its limit: what does not fit is counted as
// dropped, exactly as if the merged stream had been recorded into it.
func TestMergeTracesIntoBoundedTracer(t *testing.T) {
	recs := seededNodeStreams(3, 16, 50)
	total := 0
	for _, r := range recs {
		total += r.Len()
	}
	c := &Cluster{nodeRecs: recs}
	c.spec.Tracer = trace.NewRecorder(100)
	c.mergeTraces()
	if got, dropped := c.spec.Tracer.Len(), c.spec.Tracer.Dropped(); got != 100 || dropped != int64(total-100) {
		t.Fatalf("kept %d, dropped %d of %d events; want 100 kept", got, dropped, total)
	}
}

// TestMergeTracesAllocatesPerNodeOnly is the allocation gate: beyond the
// destination's blocks, which hold the total and less than one block more,
// the merge may allocate per node (a pull cursor each) but nothing per
// event — no clone of any node's stream, no copy of the destination.
func TestMergeTracesAllocatesPerNodeOnly(t *testing.T) {
	const nodes, perNode = 64, 8000
	recs := seededNodeStreams(9, nodes, perNode)
	events := 0
	for _, r := range recs {
		events += r.Len()
	}
	if events < 100_000 {
		t.Fatalf("stream of %d events is too short to tell a clone from the slab", events)
	}
	c := &Cluster{nodeRecs: recs}
	c.spec.Tracer = trace.NewRecorder(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.mergeTraces()
	runtime.ReadMemStats(&after)
	if c.spec.Tracer.Len() != events {
		t.Fatalf("merged %d of %d events", c.spec.Tracer.Len(), events)
	}
	size := uint64(unsafe.Sizeof(trace.Event{}))
	slab := uint64(events) * size
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > slab+4096*size+nodes*4096 {
		t.Errorf("merge allocated %d bytes for a %d-byte destination and %d nodes", bytes, slab, nodes)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > nodes*32 {
		t.Errorf("merge made %d allocations for %d nodes", mallocs, nodes)
	}
}
