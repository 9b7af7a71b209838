package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

func TestRegistrySnapshotSortsAndSumsDuplicates(t *testing.T) {
	r := New()
	r.Collect(func(emit EmitFn) {
		emit("elan4", "qdmas", 1, 3)
		emit("elan4", "qdmas", 0, 2)
	})
	// A second rail reporting under the same keys must merge, not shadow.
	r.Collect(func(emit EmitFn) {
		emit("elan4", "qdmas", 0, 5)
		emit("fabric", "pkts", -1, 9)
	})
	s := r.Snapshot()
	if got := s.Get("elan4", "qdmas", 0); got != 7 {
		t.Errorf("duplicate keys not summed: got %v, want 7", got)
	}
	if got := s.Total("elan4", "qdmas"); got != 10 {
		t.Errorf("Total = %v, want 10", got)
	}
	// Sorted by (layer, name, rank), with rank -1 ahead of rank 0.
	var keys []string
	for _, x := range s.Samples {
		keys = append(keys, x.Layer+"/"+x.Name)
	}
	want := []string{"elan4/qdmas", "elan4/qdmas", "fabric/pkts"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("sample order %v", keys)
		}
	}
	if s.Samples[0].Rank != 0 || s.Samples[1].Rank != 1 {
		t.Fatalf("rank order: %+v", s.Samples[:2])
	}
}

func TestSnapshotGetFindsEverySample(t *testing.T) {
	r := New()
	r.Collect(func(emit EmitFn) {
		for rank := -1; rank < 6; rank++ {
			emit("pml", "sends", rank, float64(rank)+10)
			emit("elan4", "qdmas", rank, float64(rank)+20)
		}
	})
	s := r.Snapshot()
	for rank := -1; rank < 6; rank++ {
		if got := s.Get("pml", "sends", rank); got != float64(rank)+10 {
			t.Errorf("Get(pml, sends, %d) = %v", rank, got)
		}
		if got := s.Get("elan4", "qdmas", rank); got != float64(rank)+20 {
			t.Errorf("Get(elan4, qdmas, %d) = %v", rank, got)
		}
	}
	if got := s.Get("pml", "sends", 99); got != 0 {
		t.Errorf("absent rank = %v, want 0", got)
	}
	if got := s.Get("zzz", "nope", 0); got != 0 {
		t.Errorf("absent key = %v, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("pml", "send_latency", 2)
	h.Observe(simtime.Micros(0.5)) // le_1us
	h.Observe(simtime.Micros(3))   // le_4us
	h.Observe(simtime.Micros(3.5)) // le_4us
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); got < 2.3 || got > 2.4 {
		t.Fatalf("Mean = %v", got)
	}
	s := r.Snapshot()
	if got := s.Get("pml", "send_latency.count", 2); got != 3 {
		t.Errorf("count sample = %v", got)
	}
	if got := s.Get("pml", "send_latency.le_4us", 2); got != 2 {
		t.Errorf("le_4us bucket = %v", got)
	}
	if got := s.Get("pml", "send_latency.le_1us", 2); got != 1 {
		t.Errorf("le_1us bucket = %v", got)
	}
	// An overflow observation lands in le_inf.
	h.Observe(simtime.Micros(1e6))
	if got := r.Snapshot().Get("pml", "send_latency.le_inf", 2); got != 1 {
		t.Errorf("le_inf bucket = %v", got)
	}
}

func TestEmptyHistogramEmitsNothing(t *testing.T) {
	r := New()
	r.Histogram("pml", "recv_latency", 0)
	if s := r.Snapshot(); len(s.Samples) != 0 {
		t.Fatalf("empty histogram emitted %+v", s.Samples)
	}
}

func TestRenderFormatsRanksAndValues(t *testing.T) {
	r := New()
	r.Collect(func(emit EmitFn) {
		emit("fabric", "pkts", -1, 12)
		emit("pml", "mean_us", 0, 1.5)
	})
	out := r.Snapshot().Render()
	if !strings.Contains(out, "layer") || !strings.Contains(out, "metric") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows:\n%s", out)
	}
	if !strings.Contains(lines[1], " - ") || !strings.Contains(lines[1], "12") {
		t.Errorf("global rank not rendered as '-': %q", lines[1])
	}
	if !strings.Contains(lines[2], "1.500") {
		t.Errorf("float not rendered with decimals: %q", lines[2])
	}
}

// The rank table at the edges of its two sides: a negative rank, the
// first and the last dense rank, the first rank past them and a huge one.
// Each gets its own T, the same one every time — a pointer taken before
// the slice grows included — and no two share one.
func TestRankTable(t *testing.T) {
	ranks := []int{-1, 0, maxDenseRank - 1, maxDenseRank, 1 << 40}
	var tab rankTable[int]
	if tab.get(0) != nil {
		t.Fatal("get made an entry")
	}
	first := tab.at(0)
	for i, r := range ranks {
		*tab.at(r) = i + 1 // the slice grows to maxDenseRank here
	}
	if got := tab.at(0); got != first {
		t.Errorf("rank 0 moved while the slice grew: %p, then %p", first, got)
	}
	seen := make(map[*int]int)
	for i, r := range ranks {
		p := tab.at(r)
		if p != tab.get(r) || *p != i+1 {
			t.Errorf("rank %d: entry %p = %d, get %p; want one entry = %d", r, p, *p, tab.get(r), i+1)
		}
		if other, dup := seen[p]; dup {
			t.Errorf("ranks %d and %d share an entry", other, r)
		}
		seen[p] = r
	}
	if len(tab.dense) != maxDenseRank || len(tab.sparse) != 3 {
		t.Errorf("%d dense, %d sparse entries; want %d and 3", len(tab.dense), len(tab.sparse), maxDenseRank)
	}
}

// perfetto returns the decoded trace-event file for hand-built events.
func perfetto(t *testing.T, events []trace.Event) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return doc
}

func TestWritePerfettoPairsSpans(t *testing.T) {
	doc := perfetto(t, []trace.Event{
		{At: simtime.Time(simtime.Micros(10)), Rank: 0, Layer: trace.LayerPML,
			Kind: trace.SendPosted, ReqID: 1, Peer: 1, Bytes: 64},
		{At: simtime.Time(simtime.Micros(25)), Rank: 0, Layer: trace.LayerPML,
			Kind: trace.SendCompleted, ReqID: 1, Peer: 1, Bytes: 64},
	})
	evs := doc["traceEvents"].([]any)
	var span map[string]any
	for _, e := range evs {
		m := e.(map[string]any)
		if m["ph"] == "X" {
			span = m
		}
	}
	if span == nil {
		t.Fatalf("no X span emitted: %v", evs)
	}
	if span["name"] != "send" {
		t.Errorf("span name = %v", span["name"])
	}
	if ts, dur := span["ts"].(float64), span["dur"].(float64); ts != 10 || dur != 15 {
		t.Errorf("span ts=%v dur=%v, want 10/15", ts, dur)
	}
}

func TestWritePerfettoDanglingOpenBecomesInstant(t *testing.T) {
	doc := perfetto(t, []trace.Event{
		{At: simtime.Time(simtime.Micros(5)), Rank: 1, Layer: trace.LayerElan4,
			Kind: trace.QDMAIssued, ReqID: 7},
	})
	evs := doc["traceEvents"].([]any)
	sawInstant := false
	for _, e := range evs {
		m := e.(map[string]any)
		switch m["ph"] {
		case "X":
			t.Fatalf("dangling open paired into a span: %v", m)
		case "i":
			sawInstant = true
		}
	}
	if !sawInstant {
		t.Fatal("dangling open lost entirely")
	}
}

func TestWritePerfettoFromPreservesDroppedCount(t *testing.T) {
	rec := trace.NewRecorder(2)
	for i := 0; i < 7; i++ {
		rec.Record(trace.Event{At: simtime.Time(simtime.Micros(float64(i))),
			Rank: 0, Layer: trace.LayerFabric, Kind: trace.PktSent})
	}
	var buf bytes.Buffer
	if err := WritePerfettoFrom(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var droppedMeta map[string]any
	for _, e := range doc["traceEvents"].([]any) {
		m := e.(map[string]any)
		if m["ph"] == "M" && m["name"] == "dropped_events" {
			droppedMeta = m
		}
	}
	if droppedMeta == nil {
		t.Fatalf("dropped-event accounting lost in export:\n%s", buf.String())
	}
	if got := droppedMeta["args"].(map[string]any)["dropped"].(float64); got != 5 {
		t.Fatalf("dropped = %v, want 5", got)
	}

	// No truncation → no metadata record.
	clean := trace.NewRecorder(0)
	clean.Record(trace.Event{Rank: 0, Layer: trace.LayerPML, Kind: trace.SendPosted, ReqID: 1})
	buf.Reset()
	if err := WritePerfettoFrom(&buf, clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "dropped_events") {
		t.Fatalf("dropped_events emitted with nothing dropped:\n%s", buf.String())
	}
}

// TestWritePerfettoFile: the file holds the bytes WritePerfettoFrom writes,
// and a path that cannot be created is an error.
func TestWritePerfettoFile(t *testing.T) {
	rec := trace.NewRecorder(2)
	for i := 0; i < 3; i++ {
		rec.Record(trace.Event{At: simtime.Time(simtime.Micros(float64(i))),
			Rank: i, Layer: trace.LayerFabric, Kind: trace.PktSent})
	}
	var want bytes.Buffer
	if err := WritePerfettoFrom(&want, rec); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(t.TempDir(), "t.json")
	if err := WritePerfettoFile(name, rec); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds %q (%v), want %q", got, err, want.Bytes())
	}
	if err := WritePerfettoFile(filepath.Join(name, "x.json"), rec); err == nil {
		t.Fatal("a file under a regular file was created")
	}
}

func TestWritePerfettoMetadata(t *testing.T) {
	doc := perfetto(t, []trace.Event{
		{At: simtime.Time(simtime.Micros(1)), Rank: 0, Layer: trace.LayerFabric, Kind: trace.PktSent},
		{At: simtime.Time(simtime.Micros(2)), Rank: 1, Layer: trace.LayerPML, Kind: trace.RecvPosted, ReqID: 1},
	})
	if doc["displayTimeUnit"] != "ns" {
		t.Errorf("displayTimeUnit = %v", doc["displayTimeUnit"])
	}
	procs := map[float64]string{}
	threads := map[string]bool{}
	for _, e := range doc["traceEvents"].([]any) {
		m := e.(map[string]any)
		if m["ph"] != "M" {
			continue
		}
		name := m["args"].(map[string]any)["name"].(string)
		switch m["name"] {
		case "process_name":
			procs[m["pid"].(float64)] = name
		case "thread_name":
			threads[name] = true
		}
	}
	if procs[0] != "rank 0" || procs[1] != "rank 1" {
		t.Errorf("process metadata = %v", procs)
	}
	if !threads["fabric"] || !threads["pml"] {
		t.Errorf("thread metadata = %v", threads)
	}
}

// TestWritePerfettoCounterTracks validates the derived "C" counter
// tracks: PML request posts/completions step the per-rank pml-inflight
// queue-depth counter (tport-layer lifecycle events are excluded), NBC
// schedules pair into "nbc" X spans, and ProgressDuty samples land on
// the progress-duty track with their per-mille value.
func TestWritePerfettoCounterTracks(t *testing.T) {
	us := func(v float64) simtime.Time { return simtime.Time(simtime.Micros(v)) }
	doc := perfetto(t, []trace.Event{
		{At: us(1), Rank: 0, Layer: trace.LayerPML, Kind: trace.SendPosted, ReqID: 1},
		{At: us(2), Rank: 0, Layer: trace.LayerPML, Kind: trace.RecvPosted, ReqID: 2},
		{At: us(3), Rank: 0, Layer: trace.LayerTport, Kind: trace.SendPosted, ReqID: 9},
		{At: us(4), Rank: 0, Layer: trace.LayerPML, Kind: trace.NBCPosted, ReqID: 5},
		{At: us(5), Rank: 0, Layer: trace.LayerPML, Kind: trace.SendCompleted, ReqID: 1},
		{At: us(6), Rank: 0, Layer: trace.LayerPML, Kind: trace.RecvCompleted, ReqID: 2},
		{At: us(7), Rank: 0, Layer: trace.LayerPML, Kind: trace.NBCCompleted, ReqID: 5},
		{At: us(7), Rank: 0, Layer: trace.LayerPML, Kind: trace.ProgressDuty, Bytes: 250},
	})
	var inflight []float64
	var duty []float64
	nbcSpan := false
	for _, e := range doc["traceEvents"].([]any) {
		m := e.(map[string]any)
		switch {
		case m["ph"] == "C" && m["name"] == "pml-inflight":
			inflight = append(inflight, m["args"].(map[string]any)["inflight"].(float64))
		case m["ph"] == "C" && m["name"] == "progress-duty":
			duty = append(duty, m["args"].(map[string]any)["permille"].(float64))
		case m["ph"] == "X" && m["name"] == "nbc":
			nbcSpan = true
		}
	}
	want := []float64{1, 2, 1, 0}
	if len(inflight) != len(want) {
		t.Fatalf("pml-inflight samples = %v, want %v (tport post must not count)", inflight, want)
	}
	for i := range want {
		if inflight[i] != want[i] {
			t.Errorf("pml-inflight[%d] = %v, want %v", i, inflight[i], want[i])
		}
	}
	if len(duty) != 1 || duty[0] != 250 {
		t.Errorf("progress-duty samples = %v, want [250]", duty)
	}
	if !nbcSpan {
		t.Error("NBCPosted/NBCCompleted did not pair into an nbc span")
	}
}
