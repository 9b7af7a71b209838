// Critical-path profiler and per-peer flow accounting: a post-hoc
// analyzer over the cross-layer trace.Event stream. Analyze reconstructs
// every message's lifecycle through its Corr correlator (trace.MsgID) and
// decomposes the end-to-end latency into named phases — scheduling, DMA
// queue residency, wire time, receive drain, match wait, rendezvous
// handshake, body DMA, FIN/completion lag — keyed by protocol path
// (eager / rdma-write / rdma-read / tport / self).
//
// Phases telescope: each phase ends at an anchor event, and a missing
// anchor (an uninstrumented or collapsed step, e.g. the DMA kinds on the
// TCP transport) folds its time into the next present phase. The phase
// durations of one message therefore sum to its end-to-end latency by
// construction, whatever subset of anchors was recorded.
//
// Everything here runs after the simulation and only reads the event
// stream, through the trace index (index.go); attaching a profiler cannot
// perturb a run. Virtual time is deterministic, so all rendered tables are
// byte-identical across runs of the same scenario.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Phase is one named segment of a message's lifecycle.
type Phase struct {
	Name string
	Dur  simtime.Duration
}

// Message is one reconstructed message: both endpoints' PML events, the
// transport's control traffic and the NIC's descriptor lifecycle, stitched
// through the Corr correlator.
type Message struct {
	Corr    uint64
	Src     int
	Dst     int
	Tag     int
	Bytes   int
	Path    string // eager | rdma-write | rdma-read | tport | self | unknown
	Start   simtime.Time
	End     simtime.Time
	Phases  []Phase
	Retries int // QDMA retry events attributed to this message
}

// Latency is the message's end-to-end virtual time; the phase durations
// sum to exactly this.
func (m Message) Latency() simtime.Duration { return m.End.Sub(m.Start) }

// PhaseStat aggregates one phase across a set of messages.
type PhaseStat struct {
	Name   string
	Count  int
	MeanUS float64
	MaxUS  float64
	sumUS  float64
}

// Flow aggregates every message of one (src,dst) pair.
type Flow struct {
	Src      int
	Dst      int
	Messages int
	Bytes    int
	Retries  int
	Phases   []PhaseStat
}

// PathStat aggregates every message of one protocol path.
type PathStat struct {
	Path     string
	Messages int
	Bytes    int
	Retries  int
	// Latency is the end-to-end stat; Phases decompose it.
	Latency PhaseStat
	Phases  []PhaseStat
}

// Profile is the result of analyzing one run's event stream.
type Profile struct {
	// Messages is every reconstructed message, ordered by start time.
	Messages []Message
	// Paths aggregates per protocol path, in canonical path order.
	Paths []PathStat
	// Flows aggregates per (src,dst), ordered by source then destination.
	Flows []Flow
	// Critical is the run's critical path in chronological order: starting
	// from the latest-ending message, each step walks back to the
	// latest-ending message that finished before the current one started
	// and shares an endpoint rank with it — the dependency chain an MPI
	// run's makespan rests on.
	Critical []Message
}

// anchor is one step of a protocol path's telescoping chain: the phase
// named phase ends at the first occurrence of kind not yet consumed by an
// earlier anchor. The first anchor of a chain opens the message (phase "").
type anchor struct {
	kind  trace.Kind
	phase string
}

// chains defines the anchor sequence of each protocol path (Figs. 2–4 of
// the paper: eager, rendezvous with RDMA write, rendezvous with RDMA
// read, plus the tport and loopback transports).
var chains = map[string][]anchor{
	"eager": {
		{trace.SendPosted, ""},
		{trace.PTLEagerTx, "sched"},
		{trace.QDMAIssued, "dma-queue"},
		{trace.QDMADeposited, "wire"},
		{trace.FirstArrived, "drain"},
		{trace.Matched, "match"},
		{trace.RecvCompleted, "deliver"},
	},
	"rdma-write": {
		{trace.SendPosted, ""},
		{trace.PTLRndvTx, "sched"},
		{trace.QDMAIssued, "dma-queue"},
		{trace.QDMADeposited, "wire"},
		{trace.FirstArrived, "drain"},
		{trace.Matched, "match"},
		{trace.AckArrived, "handshake"},
		{trace.PTLPutIssued, "sched"},
		{trace.RDMAWriteIssued, "dma-queue"},
		{trace.SendCompleted, "body-dma"},
		{trace.RecvCompleted, "fin-lag"},
	},
	"rdma-read": {
		{trace.SendPosted, ""},
		{trace.PTLRndvTx, "sched"},
		{trace.QDMAIssued, "dma-queue"},
		{trace.QDMADeposited, "wire"},
		{trace.FirstArrived, "drain"},
		{trace.Matched, "match"},
		{trace.PTLGetIssued, "handshake"},
		{trace.RDMAReadIssued, "dma-queue"},
		{trace.RecvCompleted, "body-dma"},
		{trace.SendCompleted, "fin-lag"},
	},
	"tport": {
		{trace.SendPosted, ""},
		{trace.FirstArrived, "wire"},
		{trace.Matched, "match"},
		{trace.RecvCompleted, "pull"},
		{trace.SendCompleted, "fin-lag"},
	},
	"self": {
		{trace.FirstArrived, ""},
		{trace.Matched, "match"},
		{trace.RecvCompleted, "deliver"},
	},
}

// pathOrder is the canonical rendering order of protocol paths.
var pathOrder = []string{"eager", "rdma-write", "rdma-read", "tport", "self", "unknown"}

// phaseOrder is the canonical rendering order of phase names.
var phaseOrder = []string{
	"sched", "dma-queue", "wire", "drain", "match",
	"handshake", "body-dma", "pull", "deliver", "fin-lag",
}

// Analyze reconstructs every correlated message in the event stream and
// aggregates flows, per-path breakdowns and the critical path. Events with
// Corr zero (uncorrelated: collectives, RTE, raw NIC traffic) are ignored.
func Analyze(events []trace.Event) Profile {
	ms := newIndex(events).messages()
	return Profile{
		Messages: ms,
		Paths:    aggregatePaths(ms),
		Flows:    aggregateFlows(ms),
		Critical: criticalPath(ms),
	}
}

// messages reconstructs every message group of the index, in order of
// start time, then correlator.
func (ix *index) messages() []Message {
	ms := make([]Message, 0, len(ix.corrs))
	for g := range ix.corrs {
		if m, ok := ix.reconstruct(int32(g)); ok {
			ms = append(ms, m)
		}
	}
	sort.SliceStable(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Corr < b.Corr
	})
	return ms
}

// reconstruct classifies the events of message group g and walks its
// anchor chain.
func (ix *index) reconstruct(g int32) (Message, bool) {
	corr, at := ix.corrs[g], ix.events(g)
	src, _ := trace.SplitMsgID(corr)
	m := Message{Corr: corr, Src: src, Dst: -1, Tag: -1}

	var hasKind [64]bool
	tport := false
	for _, p := range at {
		e := &ix.evs[p]
		if int(e.Kind) < len(hasKind) {
			hasKind[e.Kind] = true
		}
		if e.Layer == trace.LayerTport {
			tport = true
		}
		if e.Kind == trace.QDMARetried {
			m.Retries++
		}
		switch e.Kind {
		case trace.SendPosted:
			if e.Rank == src {
				m.Dst = e.Peer
			}
		case trace.FirstArrived, trace.Matched, trace.RecvCompleted:
			if m.Dst < 0 {
				m.Dst = e.Rank
			}
		}
		switch e.Kind {
		case trace.SendPosted, trace.Matched, trace.RecvCompleted, trace.FirstArrived:
			if (e.Layer == trace.LayerPML || e.Layer == trace.LayerTport) && e.Bytes > m.Bytes {
				m.Bytes = e.Bytes
			}
			if m.Tag < 0 {
				m.Tag = e.Tag
			}
		}
	}

	switch {
	case tport:
		m.Path = "tport"
	case m.Dst == m.Src:
		m.Path = "self"
	case hasKind[trace.PTLEagerTx]:
		m.Path = "eager"
	case hasKind[trace.PTLGetIssued]:
		m.Path = "rdma-read"
	case hasKind[trace.PTLRndvTx] || hasKind[trace.AckArrived] || hasKind[trace.PTLPutIssued]:
		m.Path = "rdma-write"
	default:
		m.Path = "unknown"
	}
	chain := chains[m.Path]
	if chain == nil {
		chain = chains["eager"] // unknown: best-effort generic shape
	}

	// Walk the chain: each anchor consumes the first not-yet-consumed
	// event of its kind. Scanning forward through the time-ordered
	// positions keeps the anchors monotone, so every phase duration is ≥ 0
	// and the durations telescope to End−Start exactly.
	idx := 0
	started := false
	var prev simtime.Time
	for _, a := range chain {
		j := -1
		for i := idx; i < len(at); i++ {
			if ix.evs[at[i]].Kind == a.kind {
				j = i
				break
			}
		}
		if j < 0 {
			continue // missing anchor: fold into the next present phase
		}
		t := ix.evs[at[j]].At
		if !started {
			m.Start, prev, started = t, t, true
		} else {
			if m.Phases == nil { // one allocation: a chain ends no more phases than this
				m.Phases = make([]Phase, 0, len(chain)-1)
			}
			m.Phases = append(m.Phases, Phase{Name: a.phase, Dur: t.Sub(prev)})
			prev = t
		}
		idx = j + 1
	}
	if !started {
		return Message{}, false
	}
	m.End = prev
	return m, true
}

// statsInto folds a message's phases (and latency) into a name-keyed
// accumulator map.
func statsInto(acc map[string]*PhaseStat, m Message) {
	for _, ph := range m.Phases {
		s := acc[ph.Name]
		if s == nil {
			s = &PhaseStat{Name: ph.Name}
			acc[ph.Name] = s
		}
		us := ph.Dur.Micros()
		s.Count++
		s.sumUS += us
		if us > s.MaxUS {
			s.MaxUS = us
		}
	}
}

// finishStats orders an accumulator canonically and computes means.
func finishStats(acc map[string]*PhaseStat) []PhaseStat {
	var out []PhaseStat
	seen := make(map[string]bool)
	emit := func(name string) {
		s := acc[name]
		if s == nil || seen[name] {
			return
		}
		seen[name] = true
		s.MeanUS = s.sumUS / float64(s.Count)
		out = append(out, *s)
	}
	for _, name := range phaseOrder {
		emit(name)
	}
	// Any name outside the canonical list (future phases) sorts last.
	var rest []string
	for name := range acc {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		emit(name)
	}
	return out
}

func aggregatePaths(msgs []Message) []PathStat {
	accs := make(map[string]*PathStat)
	phases := make(map[string]map[string]*PhaseStat)
	for _, m := range msgs {
		ps := accs[m.Path]
		if ps == nil {
			ps = &PathStat{Path: m.Path, Latency: PhaseStat{Name: "total"}}
			accs[m.Path] = ps
			phases[m.Path] = make(map[string]*PhaseStat)
		}
		ps.Messages++
		ps.Bytes += m.Bytes
		ps.Retries += m.Retries
		us := m.Latency().Micros()
		ps.Latency.Count++
		ps.Latency.sumUS += us
		if us > ps.Latency.MaxUS {
			ps.Latency.MaxUS = us
		}
		statsInto(phases[m.Path], m)
	}
	var out []PathStat
	for _, path := range pathOrder {
		ps := accs[path]
		if ps == nil {
			continue
		}
		ps.Latency.MeanUS = ps.Latency.sumUS / float64(ps.Latency.Count)
		ps.Phases = finishStats(phases[path])
		out = append(out, *ps)
	}
	return out
}

func aggregateFlows(msgs []Message) []Flow {
	type key struct{ src, dst int }
	accs := make(map[key]*Flow)
	phases := make(map[key]map[string]*PhaseStat)
	var keys []key
	for _, m := range msgs {
		k := key{m.Src, m.Dst}
		f := accs[k]
		if f == nil {
			f = &Flow{Src: m.Src, Dst: m.Dst}
			accs[k] = f
			phases[k] = make(map[string]*PhaseStat)
			keys = append(keys, k)
		}
		f.Messages++
		f.Bytes += m.Bytes
		f.Retries += m.Retries
		statsInto(phases[k], m)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	var out []Flow
	for _, k := range keys {
		f := accs[k]
		f.Phases = finishStats(phases[k])
		out = append(out, *f)
	}
	return out
}

// criticalPath walks backward from the run's latest-ending message,
// repeatedly picking the latest-ending message that finished at or before
// the current one's start and touches one of its endpoint ranks. The walk
// is bounded and fully deterministic (ties break toward the smaller
// correlator). Returned in chronological order.
func criticalPath(msgs []Message) []Message {
	if len(msgs) == 0 {
		return nil
	}
	const maxHops = 32
	later := func(a, b Message) bool { // a strictly preferred over b
		if a.End != b.End {
			return a.End > b.End
		}
		return a.Corr < b.Corr
	}
	cur := msgs[0]
	for _, m := range msgs[1:] {
		if later(m, cur) {
			cur = m
		}
	}
	path := []Message{cur}
	for len(path) < maxHops {
		var best Message
		found := false
		for _, m := range msgs {
			if m.Corr == cur.Corr || m.End > cur.Start {
				continue
			}
			if m.Src != cur.Src && m.Src != cur.Dst && m.Dst != cur.Src && m.Dst != cur.Dst {
				continue
			}
			if !found || later(m, best) {
				best, found = m, true
			}
		}
		if !found {
			break
		}
		path = append(path, best)
		cur = best
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// ---- rendering ----

// RenderBreakdown formats the per-path phase decomposition as an aligned
// table: one "total" end-to-end row per path followed by its phases.
func (p Profile) RenderBreakdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s  %-10s %8s %12s %12s\n",
		"path", "msgs", "bytes", "phase", "count", "mean us", "max us")
	for _, ps := range p.Paths {
		fmt.Fprintf(&b, "%-10s %8d %12d  %-10s %8d %12.3f %12.3f\n",
			ps.Path, ps.Messages, ps.Bytes,
			ps.Latency.Name, ps.Latency.Count, ps.Latency.MeanUS, ps.Latency.MaxUS)
		for _, s := range ps.Phases {
			fmt.Fprintf(&b, "%-10s %8s %12s  %-10s %8d %12.3f %12.3f\n",
				"", "", "", s.Name, s.Count, s.MeanUS, s.MaxUS)
		}
	}
	return b.String()
}

// RenderFlows formats the per-(src,dst) flow table: one header row per
// flow followed by its phase statistics.
func (p Profile) RenderFlows() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %8s %12s %8s  %-10s %8s %12s %12s\n",
		"src->dst", "msgs", "bytes", "retries", "phase", "count", "mean us", "max us")
	for _, f := range p.Flows {
		fmt.Fprintf(&b, "%3d ->%3d %8d %12d %8d\n", f.Src, f.Dst, f.Messages, f.Bytes, f.Retries)
		for _, s := range f.Phases {
			fmt.Fprintf(&b, "%-9s %8s %12s %8s  %-10s %8d %12.3f %12.3f\n",
				"", "", "", "", s.Name, s.Count, s.MeanUS, s.MaxUS)
		}
	}
	return b.String()
}

// RenderCritical formats the critical path, one hop per line with its
// inline phase decomposition.
func (p Profile) RenderCritical() string {
	var b strings.Builder
	if len(p.Critical) == 0 {
		b.WriteString("critical path: no correlated messages\n")
		return b.String()
	}
	span := p.Critical[len(p.Critical)-1].End.Sub(p.Critical[0].Start)
	fmt.Fprintf(&b, "critical path: %d hops, %.3fus span\n", len(p.Critical), span.Micros())
	for i, m := range p.Critical {
		fmt.Fprintf(&b, "%3d. %12.3fus +%10.3fus  rank %d -> %d  %-10s %7dB",
			i+1, m.Start.Micros(), m.Latency().Micros(), m.Src, m.Dst, m.Path, m.Bytes)
		var parts []string
		for _, ph := range m.Phases {
			parts = append(parts, fmt.Sprintf("%s %.3f", ph.Name, ph.Dur.Micros()))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "  (%s)", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
