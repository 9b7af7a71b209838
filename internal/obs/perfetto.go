// Chrome trace-event JSON export of the cross-layer event stream, in the
// format Perfetto and chrome://tracing load directly. The mapping from
// the simulator's virtual time:
//
//   - pid  = MPI rank (one Perfetto "process" per rank)
//   - tid  = layer (one track per rank×layer: pml, ptl, elan4, fabric…)
//   - ts   = virtual microseconds since time zero, written from the integer
//     picosecond count (appendJSONMicros)
//   - "X" complete events for paired lifetimes — send-posted→send-completed
//     and recv-posted→recv-completed on the PML track, DMA issued→completed
//     on the elan4 track — paired by (rank, layer, ReqID)
//   - "i" instant events for everything unpaired (matching, control
//     traffic, deposits, packets)
//   - "C" counter events for the derived per-rank counter tracks:
//     "pml-inflight" (outstanding PML requests, stepped on every
//     post/complete — the request-queue depth over time) and
//     "progress-duty" (the progress engine's cumulative duty cycle in
//     per-mille, from ProgressDuty samples); sampler GaugeSample events
//     become one counter track per gauge — per-rank queue depths and
//     duty on the rank's process, per-link utilization (cumulative
//     uplink packets/bytes) on synthetic "link port N" processes keyed
//     off the fabric layer, one thread per rail
//   - "M" metadata events naming each process/thread
//
// Virtual time is deterministic, so the exported JSON is byte-identical
// across runs of the same scenario.
//
// The encoder streams: one walk over the time-ordered events, each record
// appended to a fixed buffer that is written out as it fills. The bytes
// are those encoding/json produced from a slice of structs with map args
// (field order, sorted arg keys, its float and string rules, "null" for
// no records); perfetto_test.go keeps that encoder as the reference.
package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"iter"
	"os"
	"slices"
	"strconv"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// spanOf maps a span-opening kind to its closing kind and the quoted
// name of the "X" complete slice the pair becomes; name is "" for every
// other kind, which stays an instant.
func spanOf(k trace.Kind) (closing trace.Kind, name string) {
	switch k {
	case trace.SendPosted:
		return trace.SendCompleted, `"send"`
	case trace.RecvPosted:
		return trace.RecvCompleted, `"recv"`
	case trace.QDMAIssued:
		return trace.DMACompleted, `"qdma"`
	case trace.RDMAWriteIssued:
		return trace.DMACompleted, `"rdma-write"`
	case trace.RDMAReadIssued:
		return trace.DMACompleted, `"rdma-read"`
	case trace.NBCPosted:
		return trace.NBCCompleted, `"nbc"`
	}
	return 0, ""
}

// The quoted JSON names of every value of the byte enums a record or a
// track is named by — unnamed ones such as Kind(250) included — so no
// record quotes its name again. Written only here.
var kindJSON, layerJSON, gaugeJSON, linkGaugeJSON [256]string

func init() {
	quote := func(s string) string { q, _ := json.Marshal(s); return string(q) } // a string never fails
	for i := range 256 {
		kindJSON[i] = quote(trace.Kind(i).String())
		layerJSON[i] = quote(trace.Layer(i).String())
		gaugeJSON[i] = quote(Gauge(i).String())
		linkGaugeJSON[i] = quote(LinkGauge(i).String())
	}
}

func isSpanClose(k trace.Kind) bool {
	return k == trace.SendCompleted || k == trace.RecvCompleted ||
		k == trace.DMACompleted || k == trace.NBCCompleted
}

// inflightDelta maps PML request lifecycle kinds to their effect on the
// per-rank outstanding-request counter track.
func inflightDelta(k trace.Kind) (int, bool) {
	switch k {
	case trace.SendPosted, trace.RecvPosted:
		return 1, true
	case trace.SendCompleted, trace.RecvCompleted:
		return -1, true
	}
	return 0, false
}

// WritePerfettoFrom writes a recorder's events as Chrome trace-event
// JSON, read in place. Unlike WritePerfetto it also preserves the
// recorder's dropped-event count (events discarded once the recorder's
// limit was hit): when non-zero, a "dropped_events" metadata record is
// emitted so the truncation is visible in the exported file, not silently
// lost.
func WritePerfettoFrom(w io.Writer, rec *trace.Recorder) error {
	return writePerfetto(w, rec.Ordered(), rec.Dropped())
}

// WritePerfettoFile writes a recorder's events to the named file as
// WritePerfettoFrom does, creating or truncating it.
func WritePerfettoFile(name string, rec *trace.Recorder) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	err = WritePerfettoFrom(f, rec)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WritePerfetto writes the recorded events as Chrome trace-event JSON.
func WritePerfetto(w io.Writer, events []trace.Event) error {
	return writePerfetto(w, slices.Values(trace.Ordered(events)), 0)
}

// writePerfetto walks events, which must be in time order, once.
func writePerfetto(w io.Writer, events iter.Seq[trace.Event], dropped int64) error {
	type spanKey struct {
		rank  int
		layer trace.Layer
		kind  trace.Kind // closing kind
		req   uint64
	}
	open := make(map[spanKey]trace.Event)

	p := perfWriter{w: w, buf: make([]byte, 0, perfBuf)}
	// The bookkeeping per rank and per link port, keyed by the event's Rank.
	var pids rankTable[pidState]
	// Link counter tracks live on synthetic processes far above any rank
	// pid so port numbers never collide with rank numbers.
	const linkPIDBase = 1 << 20
	process := func(named *bool, pid int, prefix string, n int) {
		if !*named {
			*named = true
			p.begin(`"process_name"`, 'M', 0, 0, pid, 0)
			p.buf = append(p.buf, `"name":"`...)
			p.buf = strconv.AppendInt(append(p.buf, prefix...), int64(n), 10)
			p.buf = append(p.buf, '"')
			p.end()
		}
	}
	track := func(s *pidState, rank int, layer trace.Layer) {
		word, bit := layer>>6, uint64(1)<<(layer&63)
		if s.threads[word]&bit != 0 {
			return
		}
		s.threads[word] |= bit
		process(&s.rank, rank, "rank ", rank)
		p.begin(`"thread_name"`, 'M', 0, 0, rank, int(layer))
		p.buf = append(append(p.buf, `"name":`...), layerJSON[layer]...)
		p.end()
	}
	counter := func(name string, at simtime.Time, pid, tid int, key string, v int) {
		p.begin(name, 'C', at, 0, pid, tid)
		p.arg(key, int64(v))
		p.end()
	}
	// instant writes e with its own args; a span writes its opening event's
	// with the closing event's byte count over them when that is set.
	eventArgs := func(e trace.Event, bytes int) {
		if bytes != 0 {
			p.arg("bytes", int64(bytes))
		}
		p.arg("peer", int64(e.Peer))
		p.buf = strconv.AppendUint(append(p.buf, `,"req":`...), e.ReqID, 10)
		if e.Tag != 0 {
			p.arg("tag", int64(e.Tag))
		}
		p.end()
	}
	instant := func(e trace.Event) {
		p.begin(kindJSON[e.Kind], 'i', e.At, 0, e.Rank, int(e.Layer))
		eventArgs(e, e.Bytes)
	}

	for e := range events {
		if p.err != nil {
			return p.err
		}
		s := pids.at(e.Rank)
		// Sampler gauge snapshots become counter tracks: one per gauge on
		// the rank's process, one per link gauge on the port's process.
		if e.Kind == trace.GaugeSample {
			if e.Layer == trace.LayerFabric {
				pid := linkPIDBase + e.Rank
				process(&s.link, pid, "link port ", e.Rank)
				counter(linkGaugeJSON[uint8(e.Tag)], e.At, pid, e.Peer, "value", e.Bytes)
			} else {
				track(s, e.Rank, e.Layer)
				counter(gaugeJSON[uint8(e.Tag)], e.At, e.Rank, 0, "value", e.Bytes)
			}
			continue
		}
		track(s, e.Rank, e.Layer)
		// Duty-cycle samples become points on a per-rank counter track.
		if e.Kind == trace.ProgressDuty {
			counter(`"progress-duty"`, e.At, e.Rank, 0, "permille", e.Bytes)
			continue
		}
		// Request posts/completions step the queue-depth counter track
		// (tport-layer lifecycle events are the NIC's view, not queue
		// occupancy, so only the PML layer feeds the counter).
		if d, ok := inflightDelta(e.Kind); ok && e.Layer == trace.LayerPML {
			s.inflight += d
			counter(`"pml-inflight"`, e.At, e.Rank, 0, "inflight", s.inflight)
		}
		if closing, name := spanOf(e.Kind); name != "" {
			// Span open: remember it; if an earlier open with the same key
			// never closed, flush it as an instant so nothing is lost.
			k := spanKey{e.Rank, e.Layer, closing, e.ReqID}
			if prev, dup := open[k]; dup {
				instant(prev)
			}
			open[k] = e
			continue
		}
		if isSpanClose(e.Kind) {
			k := spanKey{e.Rank, e.Layer, e.Kind, e.ReqID}
			if start, ok := open[k]; ok {
				delete(open, k)
				_, name := spanOf(start.Kind)
				p.begin(name, 'X', start.At, e.At.Sub(start.At), e.Rank, int(e.Layer))
				bytes := start.Bytes
				if e.Bytes != 0 {
					bytes = e.Bytes
				}
				eventArgs(start, bytes)
				continue
			}
			// Close with no open: fall through to an instant.
		}
		instant(e)
	}

	// Unclosed spans (e.g. recorder limit hit mid-run) become instants.
	dangling := make([]trace.Event, 0, len(open))
	for _, s := range open {
		dangling = append(dangling, s)
	}
	// The comparator must be total: dangling is collected from a map, so
	// any tie left unbroken would surface map iteration order in the file.
	slices.SortFunc(dangling, func(a, b trace.Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.ReqID, b.ReqID),
			cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Kind, b.Kind))
	})
	for _, s := range dangling {
		instant(s)
	}

	if dropped > 0 {
		p.begin(`"dropped_events"`, 'M', 0, 0, 0, 0)
		p.arg("dropped", dropped)
		p.end()
	}
	return p.finish()
}

// pidState is what the writer has emitted for one rank or port number.
type pidState struct {
	threads  [4]uint64 // bit l: the thread_name of layer l is written
	rank     bool      // the rank's process_name is written
	link     bool      // the link port's process_name is written
	inflight int       // the rank's outstanding PML requests
}

// The encoder's buffer: records are appended to it and it is written out
// once fewer than perfSlack bytes — more than the longest record takes —
// are free, so no Write is larger than perfBuf and no more of the file
// than that is ever held.
const (
	perfBuf   = 64 << 10
	perfSlack = 1 << 10
)

// perfWriter appends trace-event records to buf and writes it to w as it
// fills. A record is begin, its args, end.
type perfWriter struct {
	w   io.Writer
	buf []byte
	n   int   // records begun
	err error // first Write error; the walk stops on it
}

// begin appends a record up to the opening brace of its args; name is
// quoted already. dur is written for an "X" slice, the one phase that
// carries it, and no other.
func (p *perfWriter) begin(name string, ph byte, at simtime.Time, dur simtime.Duration, pid, tid int) {
	if p.n++; p.n == 1 {
		p.buf = append(p.buf, `{"traceEvents":[`...)
	} else {
		p.buf = append(p.buf, ',')
	}
	b := append(append(p.buf, `{"name":`...), name...)
	b = append(append(b, `,"ph":"`...), ph)
	b = appendJSONMicros(append(b, `","ts":`...), int64(at))
	if ph == 'X' {
		b = appendJSONMicros(append(b, `,"dur":`...), int64(dur))
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	p.buf = append(b, `,"args":{`...)
}

// arg appends one integer arg; callers append args in key order.
func (p *perfWriter) arg(key string, v int64) {
	if p.buf[len(p.buf)-1] != '{' {
		p.buf = append(p.buf, ',')
	}
	p.buf = append(p.buf, '"')
	p.buf = append(p.buf, key...)
	p.buf = strconv.AppendInt(append(p.buf, `":`...), v, 10)
}

// end closes the record and writes the buffer out when it is nearly full.
func (p *perfWriter) end() {
	p.buf = append(p.buf, '}', '}')
	if len(p.buf) > perfBuf-perfSlack {
		p.flush()
	}
}

func (p *perfWriter) flush() {
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// finish closes the document: "null" stands for no records at all.
func (p *perfWriter) finish() error {
	if p.n == 0 {
		p.buf = append(p.buf, `{"traceEvents":null`...)
	} else {
		p.buf = append(p.buf, ']')
	}
	p.buf = append(p.buf, `,"displayTimeUnit":"ns"}`+"\n"...)
	p.flush()
	return p.err
}

// appendJSONMicros appends ps picoseconds in microseconds, byte for byte
// as encoding/json writes float64(ps)/1e6, but from the integer: its
// integer part, then up to six fractional digits with trailing zeros
// trimmed. Below 10^15 ps in magnitude that exact decimal has at most 15
// significant digits, and two such decimals are more than one ulp of a
// float64 apart, so it is the one shortest string that round-trips — what
// encoding/json writes. From 10^15 ps (1 000 s) up, MinInt64 included,
// encoding/json writes it.
func appendJSONMicros(b []byte, ps int64) []byte {
	const perUS, exact = int64(simtime.Microsecond), 1_000_000_000_000_000
	if ps <= -exact || ps >= exact {
		f, _ := json.Marshal(float64(ps) / float64(perUS)) // finite: never fails
		return append(b, f...)
	}
	if ps < 0 {
		b, ps = append(b, '-'), -ps
	}
	b = strconv.AppendInt(b, ps/perUS, 10)
	frac := ps % perUS
	if frac == 0 {
		return b
	}
	digits := [7]byte{'.'}
	for i := 6; i > 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(digits)
	for digits[n-1] == '0' {
		n--
	}
	return append(b, digits[:n]...)
}
