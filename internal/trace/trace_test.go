package trace_test

import (
	"slices"
	"strings"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

func TestTimelineOfRendezvous(t *testing.T) {
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling}, 2)
	rec := trace.NewRecorder(0)
	const n = 100000
	c.Launch(func(p *cluster.Proc) {
		p.Stack.Tracer = rec
		dt := datatype.Contiguous(n)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 5, 0, make([]byte, n), dt).Wait(p.Th)
		} else {
			buf := make([]byte, n)
			p.Stack.Recv(p.Th, 0, 5, 0, buf, dt).Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	counts := rec.ByKind()
	for _, k := range []trace.Kind{
		trace.SendPosted, trace.RecvPosted, trace.FirstArrived,
		trace.Matched, trace.SendCompleted, trace.RecvCompleted,
	} {
		if counts[k] != 1 {
			t.Errorf("%v recorded %d times, want 1", k, counts[k])
		}
	}
	// Read scheme: no ACK.
	if counts[trace.AckArrived] != 0 {
		t.Errorf("read scheme produced %d ACKs", counts[trace.AckArrived])
	}
	// Causal order in the merged timeline.
	var postAt, matchAt, doneAt int
	for i, e := range rec.Events() {
		switch e.Kind {
		case trace.SendPosted:
			postAt = i
		case trace.Matched:
			matchAt = i
		case trace.RecvCompleted:
			doneAt = i
		}
	}
	_ = postAt
	if !(matchAt < doneAt) {
		t.Error("match recorded after completion")
	}
	out := rec.Render()
	for _, want := range []string{"send-posted", "matched", "recv-completed", "rank 0", "rank 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestWriteSchemeRecordsAck(t *testing.T) {
	o := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
	c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling}, 2)
	rec := trace.NewRecorder(0)
	c.Launch(func(p *cluster.Proc) {
		p.Stack.Tracer = rec
		dt := datatype.Contiguous(50000)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 0, 0, make([]byte, 50000), dt).Wait(p.Th)
		} else {
			p.Stack.Recv(p.Th, 0, 0, 0, make([]byte, 50000), dt).Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.ByKind()[trace.AckArrived] != 1 {
		t.Fatal("write scheme must record one ACK")
	}
}

func TestUnexpectedRecorded(t *testing.T) {
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling}, 2)
	rec := trace.NewRecorder(0)
	c.Launch(func(p *cluster.Proc) {
		p.Stack.Tracer = rec
		dt := datatype.Contiguous(16)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 0, 0, make([]byte, 16), dt).Wait(p.Th)
		} else {
			p.Th.Proc().Sleep(50 * 1000 * 1000) // let it arrive unexpected
			p.Stack.Progress(p.Th)
			p.Stack.Recv(p.Th, 0, 0, 0, make([]byte, 16), dt).Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.ByKind()[trace.Unexpected] != 1 {
		t.Fatal("unexpected arrival not recorded")
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := trace.NewRecorder(3)
	for i := 0; i < 10; i++ {
		rec.Record(trace.Event{Kind: trace.SendPosted})
	}
	if rec.Len() != 3 {
		t.Fatalf("limit not enforced: %d", rec.Len())
	}
}

func TestRecorderDropped(t *testing.T) {
	rec := trace.NewRecorder(3)
	for i := 0; i < 10; i++ {
		rec.Record(trace.Event{Kind: trace.SendPosted})
	}
	if got := rec.Dropped(); got != 7 {
		t.Fatalf("Dropped() = %d, want 7", got)
	}
	if out := rec.Render(); !strings.Contains(out, "(+7 dropped)") {
		t.Fatalf("render missing dropped trailer:\n%s", out)
	}
	unlimited := trace.NewRecorder(0)
	unlimited.Record(trace.Event{Kind: trace.SendPosted})
	if unlimited.Dropped() != 0 {
		t.Fatal("unlimited recorder dropped events")
	}
	if strings.Contains(unlimited.Render(), "dropped") {
		t.Fatal("dropped trailer printed with nothing dropped")
	}
}

func TestLayerTags(t *testing.T) {
	for layer, want := range map[trace.Layer]string{
		trace.LayerPML:     "pml",
		trace.LayerPTL:     "ptl",
		trace.LayerElan4:   "elan4",
		trace.LayerFabric:  "fabric",
		trace.LayerTport:   "tport",
		trace.LayerCluster: "cluster",
	} {
		if got := layer.String(); got != want {
			t.Errorf("Layer(%d).String() = %q, want %q", layer, got, want)
		}
	}
}

func TestEventsReturnsDefensiveCopy(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.Record(trace.Event{Rank: 0, Layer: trace.LayerPML, Kind: trace.SendPosted, ReqID: 1})
	rec.Record(trace.Event{Rank: 1, Layer: trace.LayerPML, Kind: trace.RecvPosted, ReqID: 2})
	evs := rec.Events()
	evs[0].Kind = trace.PktSent
	evs[0].Rank = 99
	if again := rec.Events(); again[0].Kind != trace.SendPosted || again[0].Rank != 0 {
		t.Fatalf("mutating the returned slice corrupted the recorder: %+v", again[0])
	}
}

// TestAllWalksInPlace: All yields what Events returns, in record order,
// without the copy — a walk over a long stream allocates nothing that
// grows with it — and stops when the loop body breaks.
func TestAllWalksInPlace(t *testing.T) {
	rec := trace.NewRecorder(0)
	for i := 0; i < 10_000; i++ {
		rec.Record(trace.Event{At: simtime.Time(10_000 - i), Rank: i, Kind: trace.PktSent})
	}
	if got := slices.Collect(rec.All()); !slices.Equal(got, rec.Events()) {
		t.Fatal("All and Events disagree")
	}
	seen := 0
	allocs := testing.AllocsPerRun(5, func() {
		seen = 0
		for e := range rec.All() {
			if seen++; e.Rank == 4999 {
				break
			}
		}
	})
	if seen != 5000 || allocs > 2 {
		t.Fatalf("walk visited %d events before its break with %.0f allocations; want 5000 and no copy", seen, allocs)
	}
}

// TestOrderedCopiesOnlyWhatNeedsSorting: a stream in time order comes back
// as the very same slice; any other as a stably sorted copy, the input
// left as it was.
func TestOrderedCopiesOnlyWhatNeedsSorting(t *testing.T) {
	inOrder := []trace.Event{{At: 1, Rank: 0}, {At: 1, Rank: 1}, {At: 5, Rank: 2}, {At: 5, Rank: 3}}
	if got := trace.Ordered(inOrder); &got[0] != &inOrder[0] || len(got) != len(inOrder) {
		t.Fatal("an ordered stream was copied")
	}
	if got := trace.Ordered(nil); got != nil {
		t.Fatalf("Ordered(nil) = %v", got)
	}
	shuffled := []trace.Event{{At: 5, Rank: 2}, {At: 1, Rank: 0}, {At: 5, Rank: 3}, {At: 1, Rank: 1}}
	input := slices.Clone(shuffled)
	if got := trace.Ordered(shuffled); !slices.Equal(got, inOrder) {
		t.Fatalf("Ordered = %+v, want %+v (stable)", got, inOrder)
	}
	if !slices.Equal(shuffled, input) {
		t.Fatal("Ordered sorted its input in place")
	}
}

func TestFilterSelectsByLayerKindAndRank(t *testing.T) {
	events := []trace.Event{
		{Rank: 0, Layer: trace.LayerPML, Kind: trace.SendPosted},
		{Rank: 1, Layer: trace.LayerPML, Kind: trace.Matched},
		{Rank: 1, Layer: trace.LayerElan4, Kind: trace.QDMAIssued},
		{Rank: 0, Layer: trace.LayerFabric, Kind: trace.PktSent},
	}
	got, err := trace.Filter(events, "pml", "", -1)
	if err != nil || len(got) != 2 {
		t.Fatalf("layer filter: %v, %d events", err, len(got))
	}
	got, err = trace.Filter(events, "pml,elan4", "matched,qdma-issued", -1)
	if err != nil || len(got) != 2 {
		t.Fatalf("layer+kind filter: %v, %d events", err, len(got))
	}
	got, err = trace.Filter(events, "", "", 0)
	if err != nil || len(got) != 2 || got[0].Rank != 0 || got[1].Rank != 0 {
		t.Fatalf("rank filter: %v, %+v", err, got)
	}
	got, err = trace.Filter(events, " pml , fabric ", "", 1)
	if err != nil || len(got) != 1 || got[0].Kind != trace.Matched {
		t.Fatalf("whitespace + rank combination: %v, %+v", err, got)
	}
	if got, err = trace.Filter(events, "", "", -1); err != nil || len(got) != 4 {
		t.Fatalf("empty filter must pass everything: %v, %d events", err, len(got))
	}
}

func TestFilterRejectsUnknownNamesListingValid(t *testing.T) {
	_, err := trace.Filter(nil, "nic", "", -1)
	if err == nil || !strings.Contains(err.Error(), `unknown layer "nic"`) ||
		!strings.Contains(err.Error(), "elan4") {
		t.Fatalf("bad layer error = %v", err)
	}
	_, err = trace.Filter(nil, "", "qdma", -1)
	if err == nil || !strings.Contains(err.Error(), `unknown kind "qdma"`) ||
		!strings.Contains(err.Error(), "qdma-issued") {
		t.Fatalf("bad kind error = %v", err)
	}
}

func TestRenderEventsAppendsDroppedTrailer(t *testing.T) {
	events := []trace.Event{{Rank: 0, Layer: trace.LayerPML, Kind: trace.SendPosted}}
	if out := trace.RenderEvents(events, 0); strings.Contains(out, "dropped") {
		t.Fatalf("trailer with nothing dropped:\n%s", out)
	}
	out := trace.RenderEvents(events, 7)
	if !strings.Contains(out, "(+7 dropped)") {
		t.Fatalf("missing dropped trailer:\n%s", out)
	}
}
