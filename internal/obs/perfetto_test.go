// Differential, fuzz and allocation tests of the streaming Perfetto
// encoder. referencePerfetto below is the encoder it replaced — a slice of
// structs with map args handed whole to encoding/json — kept as the
// definition of the bytes: every test here is "new == reference".
//
// External test package: the run scenarios drive internal/cluster and
// internal/experiments, which import obs.
package obs_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

type perfEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type perfFile struct {
	TraceEvents     []perfEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

var spanPairs = map[trace.Kind]trace.Kind{
	trace.SendPosted:      trace.SendCompleted,
	trace.RecvPosted:      trace.RecvCompleted,
	trace.QDMAIssued:      trace.DMACompleted,
	trace.RDMAWriteIssued: trace.DMACompleted,
	trace.RDMAReadIssued:  trace.DMACompleted,
	trace.NBCPosted:       trace.NBCCompleted,
}

var spanNames = map[trace.Kind]string{
	trace.SendPosted:      "send",
	trace.RecvPosted:      "recv",
	trace.QDMAIssued:      "qdma",
	trace.RDMAWriteIssued: "rdma-write",
	trace.RDMAReadIssued:  "rdma-read",
	trace.NBCPosted:       "nbc",
}

func referencePerfetto(w io.Writer, events []trace.Event, dropped int64) error {
	sorted := append([]trace.Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	type spanKey struct {
		rank  int
		layer trace.Layer
		kind  trace.Kind // closing kind
		req   uint64
	}
	open := make(map[spanKey]trace.Event)

	var out []perfEvent
	seenTrack := make(map[[2]int]bool)
	seenProc := make(map[int]bool)
	track := func(rank int, layer trace.Layer) {
		if !seenProc[rank] {
			seenProc[rank] = true
			out = append(out, perfEvent{
				Name: "process_name", Ph: "M", PID: rank, TID: 0,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
			})
		}
		tk := [2]int{rank, int(layer)}
		if !seenTrack[tk] {
			seenTrack[tk] = true
			out = append(out, perfEvent{
				Name: "thread_name", Ph: "M", PID: rank, TID: int(layer),
				Args: map[string]any{"name": layer.String()},
			})
		}
	}
	args := func(e trace.Event) map[string]any {
		a := map[string]any{"req": e.ReqID, "peer": e.Peer}
		if e.Tag != 0 {
			a["tag"] = e.Tag
		}
		if e.Bytes != 0 {
			a["bytes"] = e.Bytes
		}
		return a
	}
	instant := func(e trace.Event) perfEvent {
		return perfEvent{
			Name: e.Kind.String(), Ph: "i",
			TS: e.At.Micros(), PID: e.Rank, TID: int(e.Layer),
			Args: args(e),
		}
	}

	const linkPIDBase = 1 << 20
	linkProc := make(map[int]bool)

	inflight := make(map[int]int)
	for _, e := range sorted {
		if e.Kind == trace.GaugeSample {
			if e.Layer == trace.LayerFabric {
				pid := linkPIDBase + e.Rank
				if !linkProc[pid] {
					linkProc[pid] = true
					out = append(out, perfEvent{
						Name: "process_name", Ph: "M", PID: pid, TID: 0,
						Args: map[string]any{"name": fmt.Sprintf("link port %d", e.Rank)},
					})
				}
				out = append(out, perfEvent{
					Name: obs.LinkGauge(e.Tag).String(), Ph: "C",
					TS: e.At.Micros(), PID: pid, TID: e.Peer,
					Args: map[string]any{"value": e.Bytes},
				})
			} else {
				track(e.Rank, e.Layer)
				out = append(out, perfEvent{
					Name: obs.Gauge(e.Tag).String(), Ph: "C",
					TS: e.At.Micros(), PID: e.Rank, TID: 0,
					Args: map[string]any{"value": e.Bytes},
				})
			}
			continue
		}
		track(e.Rank, e.Layer)
		if e.Kind == trace.ProgressDuty {
			out = append(out, perfEvent{
				Name: "progress-duty", Ph: "C",
				TS: e.At.Micros(), PID: e.Rank, TID: 0,
				Args: map[string]any{"permille": e.Bytes},
			})
			continue
		}
		if e.Layer == trace.LayerPML {
			d := 0
			switch e.Kind {
			case trace.SendPosted, trace.RecvPosted:
				d = 1
			case trace.SendCompleted, trace.RecvCompleted:
				d = -1
			}
			if d != 0 {
				inflight[e.Rank] += d
				out = append(out, perfEvent{
					Name: "pml-inflight", Ph: "C",
					TS: e.At.Micros(), PID: e.Rank, TID: 0,
					Args: map[string]any{"inflight": inflight[e.Rank]},
				})
			}
		}
		if closing, ok := spanPairs[e.Kind]; ok {
			k := spanKey{e.Rank, e.Layer, closing, e.ReqID}
			if prev, dup := open[k]; dup {
				out = append(out, instant(prev))
			}
			open[k] = e
			continue
		}
		switch e.Kind {
		case trace.SendCompleted, trace.RecvCompleted, trace.DMACompleted, trace.NBCCompleted:
			k := spanKey{e.Rank, e.Layer, e.Kind, e.ReqID}
			if start, ok := open[k]; ok {
				delete(open, k)
				dur := e.At.Sub(start.At).Micros()
				a := args(start)
				if e.Bytes != 0 {
					a["bytes"] = e.Bytes
				}
				out = append(out, perfEvent{
					Name: spanNames[start.Kind], Ph: "X",
					TS: start.At.Micros(), Dur: &dur,
					PID: e.Rank, TID: int(e.Layer), Args: a,
				})
				continue
			}
		}
		out = append(out, instant(e))
	}

	var dangling []trace.Event
	for _, s := range open {
		dangling = append(dangling, s)
	}
	sort.SliceStable(dangling, func(i, j int) bool {
		if dangling[i].At != dangling[j].At {
			return dangling[i].At < dangling[j].At
		}
		if dangling[i].Rank != dangling[j].Rank {
			return dangling[i].Rank < dangling[j].Rank
		}
		if dangling[i].ReqID != dangling[j].ReqID {
			return dangling[i].ReqID < dangling[j].ReqID
		}
		if dangling[i].Layer != dangling[j].Layer {
			return dangling[i].Layer < dangling[j].Layer
		}
		return dangling[i].Kind < dangling[j].Kind
	})
	for _, s := range dangling {
		out = append(out, instant(s))
	}

	if dropped > 0 {
		out = append(out, perfEvent{
			Name: "dropped_events", Ph: "M", PID: 0, TID: 0,
			Args: map[string]any{"dropped": dropped},
		})
	}
	return json.NewEncoder(w).Encode(perfFile{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// diffPerfetto fails unless both entry points of the encoder produce the
// reference's bytes for events: WritePerfetto on the slice, and
// WritePerfettoFrom on a recorder holding it (bounded to limit events
// when limit > 0, so the tail is dropped and counted).
func diffPerfetto(t testing.TB, events []trace.Event, limit int) {
	t.Helper()
	check := func(entry string, write func(io.Writer) error, evs []trace.Event, dropped int64) {
		t.Helper()
		var want, got bytes.Buffer
		if err := referencePerfetto(&want, evs, dropped); err != nil {
			t.Fatal(err)
		}
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			from := max(i-80, 0)
			t.Fatalf("%s differs from the reference at byte %d (%d events):\n got …%s\nwant …%s",
				entry, i, len(evs), g[from:min(i+80, len(g))], w[from:min(i+80, len(w))])
		}
	}
	check("WritePerfetto", func(w io.Writer) error { return obs.WritePerfetto(w, events) }, events, 0)

	rec := trace.NewRecorder(limit)
	for _, e := range events {
		rec.Record(e)
	}
	check("WritePerfettoFrom", func(w io.Writer) error { return obs.WritePerfettoFrom(w, rec) },
		rec.Events(), rec.Dropped())
}

func TestPerfettoMatchesReference(t *testing.T) {
	us := func(v float64) simtime.Time { return simtime.Time(simtime.Micros(v)) }
	pml, elan := trace.LayerPML, trace.LayerElan4
	for _, tc := range []struct {
		name   string
		events []trace.Event
		limit  int
	}{
		{name: "empty"},
		{name: "dropped-events", limit: 2, events: []trace.Event{
			{At: us(1), Layer: trace.LayerFabric, Kind: trace.PktSent},
			{At: us(2), Layer: trace.LayerFabric, Kind: trace.PktSent},
			{At: us(3), Layer: trace.LayerFabric, Kind: trace.PktSent},
		}},
		{name: "all-dropped-but-one", limit: 1, events: []trace.Event{
			{At: us(1), Layer: pml, Kind: trace.SendPosted, ReqID: 1},
			{At: us(2), Layer: pml, Kind: trace.SendCompleted, ReqID: 1},
		}},
		{name: "duplicate-span-open", events: []trace.Event{
			{At: us(1), Layer: pml, Kind: trace.SendPosted, ReqID: 1, Peer: 1, Bytes: 8},
			{At: us(2), Layer: pml, Kind: trace.SendPosted, ReqID: 1, Peer: 2, Tag: 5},
			{At: us(3), Layer: pml, Kind: trace.SendCompleted, ReqID: 1, Peer: 2, Bytes: 64},
		}},
		{name: "close-without-open", events: []trace.Event{
			{At: us(1), Rank: 2, Layer: elan, Kind: trace.DMACompleted, ReqID: 4, Bytes: 100},
			{At: us(2), Rank: 2, Layer: pml, Kind: trace.RecvCompleted, ReqID: 4},
			{At: us(3), Rank: 2, Layer: pml, Kind: trace.NBCCompleted, ReqID: 4},
		}},
		{name: "span-bytes-from-either-end", events: []trace.Event{
			{At: us(1), Layer: elan, Kind: trace.QDMAIssued, ReqID: 1, Bytes: 32},
			{At: us(1), Layer: elan, Kind: trace.RDMAWriteIssued, ReqID: 2},
			{At: us(1), Layer: elan, Kind: trace.RDMAReadIssued, ReqID: 3, Bytes: 7, Tag: -3},
			{At: us(2), Layer: elan, Kind: trace.DMACompleted, ReqID: 1},
			{At: us(2), Layer: elan, Kind: trace.DMACompleted, ReqID: 2},
			{At: us(2), Layer: elan, Kind: trace.DMACompleted, ReqID: 3, Bytes: 4096},
		}},
		// Dangling opens that agree on every key but the last the
		// comparator looks at: their order in the file is the comparator's,
		// never the map's.
		{name: "dangling-full-key-ties", events: []trace.Event{
			{At: us(5), Rank: 1, Layer: trace.LayerTport, Kind: trace.RecvPosted, ReqID: 7},
			{At: us(5), Rank: 1, Layer: trace.LayerTport, Kind: trace.SendPosted, ReqID: 7},
			{At: us(5), Rank: 1, Layer: pml, Kind: trace.RecvPosted, ReqID: 7},
			{At: us(5), Rank: 1, Layer: pml, Kind: trace.SendPosted, ReqID: 7},
			{At: us(5), Rank: 1, Layer: pml, Kind: trace.NBCPosted, ReqID: 7},
			{At: us(5), Rank: 0, Layer: elan, Kind: trace.RDMAReadIssued, ReqID: 7},
			{At: us(5), Rank: 1, Layer: elan, Kind: trace.QDMAIssued, ReqID: 6},
			{At: us(4), Rank: 3, Layer: elan, Kind: trace.QDMAIssued, ReqID: 9},
		}},
		{name: "unsorted-input", events: []trace.Event{
			{At: us(9), Layer: pml, Kind: trace.SendCompleted, ReqID: 1},
			{At: us(3), Rank: 1, Layer: pml, Kind: trace.Matched, ReqID: 2, Corr: 1},
			{At: us(1), Layer: pml, Kind: trace.SendPosted, ReqID: 1},
			{At: us(3), Rank: 1, Layer: pml, Kind: trace.FirstArrived, ReqID: 2},
			{At: us(2), Layer: pml, Kind: trace.ProgressDuty, Bytes: 500},
		}},
		{name: "extreme-instants", events: []trace.Event{
			{At: 0, Layer: pml, Kind: trace.SendPosted, ReqID: 1},
			{At: 1, Layer: pml, Kind: trace.SendCompleted, ReqID: 1},
			{At: 1, Layer: pml, Kind: trace.RecvPosted, ReqID: 2},
			{At: 999_999, Layer: pml, Kind: trace.Matched},
			{At: 1_000_001, Layer: pml, Kind: trace.Matched},
			{At: 123_456_789_012_345_678, Layer: pml, Kind: trace.Matched},
			{At: math.MaxInt64, Layer: pml, Kind: trace.RecvCompleted, ReqID: 2},
			{At: math.MaxInt64, Layer: pml, Kind: trace.ProgressDuty, Bytes: -1},
		}},
		{name: "negative-and-huge-fields", events: []trace.Event{
			{At: us(1), Rank: -1, Layer: pml, Kind: trace.Unexpected, Peer: -1, Tag: -42, Bytes: -8, ReqID: math.MaxUint64},
			{At: us(2), Rank: math.MaxInt32, Layer: pml, Kind: trace.Matched, Peer: math.MinInt64, Tag: math.MaxInt64},
			{At: us(3), Rank: -7, Layer: trace.LayerFabric, Kind: trace.GaugeSample, Peer: -2, Tag: 1, Bytes: math.MinInt64},
			// A rank whose pid is the synthetic pid of link port 3.
			{At: us(4), Rank: 1<<20 + 3, Layer: pml, Kind: trace.GaugeSample, Tag: 2, Bytes: 9},
			{At: us(5), Rank: 3, Layer: trace.LayerFabric, Kind: trace.GaugeSample},
		}},
		{name: "out-of-range-enums", events: []trace.Event{
			{At: us(1), Layer: 200, Kind: 0},
			{At: us(2), Layer: 6, Kind: 250, ReqID: 3},
			{At: us(3), Layer: pml, Kind: trace.GaugeSample, Tag: 200, Bytes: 1},
			{At: us(3), Layer: trace.LayerFabric, Kind: trace.GaugeSample, Tag: 77, Bytes: 1},
			{At: us(3), Layer: 9, Kind: trace.GaugeSample, Tag: 256 + 2, Bytes: 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { diffPerfetto(t, tc.events, tc.limit) })
	}

	// The golden protocol scenarios, the export test's rendezvous, and the
	// sampled 8-rank wait-state workload (GaugeSample, CollEnter/Exit and
	// ProgressDuty events among the protocol's).
	for _, tc := range []struct {
		name   string
		scheme ptlelan4.Scheme
		size   int
	}{
		{"golden-read", ptlelan4.RDMARead, 4096},
		{"golden-write", ptlelan4.RDMAWrite, 4096},
		{"golden-eager", ptlelan4.RDMARead, 256},
		{"rendezvous-100000", ptlelan4.RDMARead, 100000},
	} {
		t.Run(tc.name, func(t *testing.T) { diffPerfetto(t, exchange(t, tc.scheme, tc.size).Events(), 0) })
	}
	t.Run("sampled-8", func(t *testing.T) {
		_, rec := experiments.SampledRun(8, 6, 1, 0)
		diffPerfetto(t, rec.Events(), 0)
		diffPerfetto(t, rec.Events(), rec.Len()/2) // cut mid-run: dangling spans, dropped count
	})
	for _, sc := range experiments.WaitScenarios(1) {
		t.Run(sc.Name, func(t *testing.T) { diffPerfetto(t, sc.Events, 0) })
	}
}

// fuzzEvents decodes fuzz input into an event stream, eight bytes an
// event. Fields are drawn from ranges narrow enough that span keys and
// track keys collide often, with a few bits reserved to reach the values
// the encoder must not trip over: extreme instants, negative and huge
// numbers, every Kind/Layer/Gauge byte including the unnamed ones.
func fuzzEvents(data []byte) []trace.Event {
	var evs []trace.Event
	for ; len(data) >= 8; data = data[8:] {
		b := data[:8]
		e := trace.Event{
			At:    simtime.Time(binary.LittleEndian.Uint16(b[0:2])) * 250_000,
			Rank:  int(b[2] & 3),
			Layer: trace.Layer(b[3] & 7),
			Kind:  trace.Kind(b[4]),
			ReqID: uint64(b[5] & 3),
			Peer:  int(int8(b[6])),
			Tag:   int(b[7] >> 4),
			Bytes: int(b[7]&15) * 512,
		}
		if b[4]&0x80 != 0 { // upper half of the Kind byte: fold onto the span kinds
			e.Kind = []trace.Kind{trace.SendPosted, trace.SendCompleted, trace.RecvPosted, trace.RecvCompleted,
				trace.QDMAIssued, trace.RDMAWriteIssued, trace.RDMAReadIssued, trace.DMACompleted,
				trace.NBCPosted, trace.NBCCompleted, trace.GaugeSample, trace.ProgressDuty,
				trace.Kind(b[4]), 0, trace.Matched, trace.PktSent}[b[4]&15]
		}
		switch b[2] >> 4 { // rare shapes
		case 1:
			e.At = math.MaxInt64
		case 2:
			e.At = simtime.Time(b[0]) // picoseconds
		case 3:
			e.At = -e.At
		case 4:
			e.Rank, e.Peer = -int(b[6]), math.MinInt64
		case 5:
			e.Rank = 1<<20 + int(b[2]&3)
		case 6:
			e.ReqID, e.Tag, e.Bytes = math.MaxUint64, -int(b[7]), math.MinInt64
		case 7:
			e.Layer, e.Tag = trace.Layer(b[3]), int(b[7])
		}
		evs = append(evs, e)
	}
	return evs
}

// FuzzPerfettoMatchesReference: whatever the stream, the streaming
// encoder writes the reference's bytes. The seed corpus runs under plain
// go test; the nightly workflow fuzzes for real.
func FuzzPerfettoMatchesReference(f *testing.F) {
	const span, shape = 0x80, 0x10 // see fuzzEvents: Kind table index, rare-shape selector
	for _, seed := range []struct {
		events [][8]byte // At lo, At hi, shape|rank, layer, kind, req, peer, tag|bytes
		limit  uint8
	}{
		{},
		{events: [][8]byte{ // a send span with args, then the same pair unsorted
			{1, 0, 0, 0, span | 0, 1, 1, 0x11}, {2, 0, 0, 0, span | 1, 1, 1, 0x12},
			{9, 0, 1, 0, span | 1, 1, 1, 0x12}, {8, 0, 1, 0, span | 0, 1, 1, 0x11},
		}},
		{events: [][8]byte{ // duplicate open, one close, two dangling DMA opens, a stray close
			{1, 0, 0, 2, span | 4, 1, 0, 0}, {1, 0, 0, 2, span | 5, 1, 0, 0}, {3, 0, 0, 2, span | 7, 1, 0, 3},
			{4, 0, 0, 2, span | 6, 2, 0, 0}, {4, 0, 1, 2, span | 6, 2, 0, 0}, {5, 0, 2, 2, span | 7, 3, 0, 0},
		}},
		{limit: 3, events: [][8]byte{ // MaxInt64, picosecond and negative instants on a bounded recorder
			{1, 0, 1 * shape, 0, span | 2, 2, 0, 0}, {7, 0, 2*shape | 1, 3, span | 10, 0, 5, 0x31},
			{5, 0, 3*shape | 2, 0, span | 11, 0, 0, 0xff}, {6, 0, 0, 0, span | 3, 2, 0, 0}, {6, 0, 0, 0, span | 14, 2, 0, 0},
		}},
		{events: [][8]byte{ // negative ranks, a rank on a link pid, huge fields, unnamed enums
			{1, 0, 4 * shape, 0, 4, 0, 0x80, 0}, {1, 0, 5*shape | 3, 0, span | 10, 0, 0, 0x20}, {1, 0, 3, 3, span | 10, 0, 0, 0x20},
			{1, 0, 6 * shape, 0, 5, 0, 0, 0x9c}, {1, 0, 7 * shape, 200, 250, 0, 0, 200}, {2, 0, 7 * shape, 3, span | 10, 0, 0, 77},
			{2, 0, 0, 7, span | 12, 0, 0, 0}, {2, 0, 0, 6, span | 13, 0, 0, 0},
		}},
	} {
		var data []byte
		for _, e := range seed.events {
			data = append(data, e[:]...)
		}
		f.Add(data, seed.limit)
	}
	f.Fuzz(func(t *testing.T, data []byte, limit uint8) {
		diffPerfetto(t, fuzzEvents(data), int(limit))
	})
}

// maxWriter discards what it is given and remembers the largest Write.
type maxWriter struct{ max int }

func (w *maxWriter) Write(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	return len(p), nil
}

// longStream is n events of steady traffic on 16 ranks: message
// lifecycles that open and close spans, plus counters, with a bounded
// number of spans open at any instant — so whatever an encoder allocates
// per event shows as a difference between two lengths.
func longStream(n int) []trace.Event {
	evs := make([]trace.Event, 0, n)
	for i := 0; len(evs) < n; i++ {
		at, rank, req := simtime.Time(i)*1000, i&15, uint64(i)
		evs = append(evs,
			trace.Event{At: at, Rank: rank, Kind: trace.SendPosted, ReqID: req, Peer: (rank + 1) & 15, Tag: 7, Bytes: 4096, Corr: trace.MsgID(rank, req)},
			trace.Event{At: at + 100, Rank: rank, Layer: trace.LayerElan4, Kind: trace.QDMAIssued, ReqID: req, Corr: trace.MsgID(rank, req)},
			trace.Event{At: at + 200, Rank: rank, Layer: trace.LayerFabric, Kind: trace.PktSent, Peer: (rank + 1) & 15, Bytes: 4096},
			trace.Event{At: at + 300, Rank: rank, Layer: trace.LayerElan4, Kind: trace.DMACompleted, ReqID: req, Corr: trace.MsgID(rank, req)},
			trace.Event{At: at + 400, Rank: rank, Kind: trace.SendCompleted, ReqID: req, Corr: trace.MsgID(rank, req)},
			trace.Event{At: at + 500, Rank: rank, Kind: trace.GaugeSample, ReqID: req, Peer: -1, Tag: int(obs.GaugeDuty), Bytes: i % 1000},
			trace.Event{At: at + 500, Rank: rank, Layer: trace.LayerFabric, Kind: trace.GaugeSample, ReqID: req, Tag: int(obs.LinkGaugeBytes), Bytes: i},
			trace.Event{At: at + 600, Rank: rank, Kind: trace.ProgressDuty, Bytes: 250},
		)
	}
	return evs[:n]
}

// TestWritePerfettoStreams is the encoder's allocation gate: its
// allocation count does not grow with the stream (ten times the events,
// the same handful of maps and one buffer), and no Write is larger than
// the 64 KB buffer — the file is never assembled in memory.
func TestWritePerfettoStreams(t *testing.T) {
	count := func(n int) (allocs float64, largest int) {
		evs := longStream(n)
		var w maxWriter
		allocs = testing.AllocsPerRun(3, func() {
			if err := obs.WritePerfetto(&w, evs); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, w.max
	}
	small, _ := count(10_000)
	large, largest := count(100_000)
	if large > small+8 {
		t.Errorf("WritePerfetto makes %.0f allocations for 100 000 events and %.0f for 10 000: it allocates per event", large, small)
	}
	if largest > 64<<10 || largest < 32<<10 {
		t.Errorf("largest single Write is %d bytes, want a nearly full 64 KB buffer", largest)
	}
}

// The post-processing costs on a long steady stream, beside the encoder
// and the index they time:
//
//	go test -run '^$' -bench 'WritePerfetto|AnalyzeWaits' -benchtime 5x ./internal/obs
func BenchmarkWritePerfetto(b *testing.B) {
	evs := longStream(500_000)
	b.ReportAllocs()
	for b.Loop() {
		if err := obs.WritePerfetto(io.Discard, evs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeWaits(b *testing.B) {
	evs := longStream(500_000)
	b.ReportAllocs()
	for b.Loop() {
		obs.AnalyzeWaits(evs)
	}
}
