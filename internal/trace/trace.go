// Package trace records cross-layer protocol timelines: a single
// layer-tagged event stream fed by the PML (request posting, matching,
// progress), the PTL modules (eager/rendezvous/control traffic), the Elan4
// NIC model (DMA descriptors, deposits, chained events) and the fabric
// (packet send/deliver), all in virtual time. A Recorder is attached to a
// whole cluster (cluster.Spec.Tracer) or to a single PML stack
// (Stack.Tracer); the cmd/msgtrace tool renders the merged timeline of a
// run, and internal/obs exports it as Chrome trace-event JSON viewable in
// Perfetto. This is how the §6.3-style layering analyses and the §5.3
// completion-queue race were debugged.
package trace

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"

	"qsmpi/internal/simtime"
)

// Layer identifies which layer of the stack emitted an event.
type Layer uint8

// Layers, top of the stack first. LayerPML is the zero value so the
// original PML-only recording sites need no tagging.
const (
	LayerPML Layer = iota
	LayerPTL
	LayerElan4
	LayerFabric
	LayerTport
	LayerCluster
)

func (l Layer) String() string {
	switch l {
	case LayerPML:
		return "pml"
	case LayerPTL:
		return "ptl"
	case LayerElan4:
		return "elan4"
	case LayerFabric:
		return "fabric"
	case LayerTport:
		return "tport"
	case LayerCluster:
		return "cluster"
	}
	return fmt.Sprintf("Layer(%d)", uint8(l))
}

// Kind labels one protocol event.
type Kind uint8

// PML-layer event kinds, in rough protocol order.
const (
	SendPosted Kind = iota + 1
	RecvPosted
	FirstArrived
	Matched
	Unexpected
	AckArrived
	SendProgressed
	RecvProgressed
	SendCompleted
	RecvCompleted

	// PTL-layer kinds: first fragments, rendezvous control traffic and
	// completion-queue records as the transport sees them.
	PTLEagerTx
	PTLRndvTx
	PTLAckTx
	PTLPutIssued
	PTLGetIssued
	PTLFinRx
	PTLFinAckRx
	PTLCQRecord

	// Elan4 NIC kinds: DMA descriptor lifecycle, queue deposits and the
	// chained-event mechanism.
	QDMAIssued
	RDMAWriteIssued
	RDMAReadIssued
	DMACompleted
	QDMADeposited
	QDMARetried
	ChainFired

	// Fabric kinds: wire packets.
	PktSent
	PktDelivered

	// NIC-resident collective tree kinds: a host handing its local
	// contribution to the tree, and the tree's release reaching it back.
	HWCollUp
	HWCollDone

	// Nonblocking-collective kinds: a schedule posted (Ibarrier/Ibcast/
	// Iallreduce), one phase of it retired by the progress engine, and the
	// whole schedule completed. ReqID is the rank's NBC sequence number;
	// Tag carries the phase index on NBCPhase events.
	NBCPosted
	NBCPhase
	NBCCompleted

	// ProgressDuty is a duty-cycle sample emitted when a blocking wait
	// returns: Bytes carries the per-mille of virtual time this rank has
	// spent inside progress sweeps so far. Exported as a Perfetto counter
	// track (obs.WritePerfetto).
	ProgressDuty

	// Collective-epoch kinds: a rank entering a blocking collective and
	// the same rank leaving it. ReqID is the communicator's collective
	// sequence number (the epoch), Tag identifies the operation (see
	// CollOp), and Peer distinguishes the host software path (0) from the
	// NIC-offloaded path (1). Corr carries MsgID(rank, collCorrBit|epoch),
	// a correlator no message shares; the wait-state analyzer does not read
	// it, but keys an epoch by (ReqID, Tag) and a member by Rank.
	CollEnter
	CollExit

	// GaugeSample is one telemetry-sampler reading (obs.Sampler): ReqID is
	// the tick index, Tag the sampled gauge's identity (see obs gauge ids),
	// Bytes the value. Rank is the sampled rank, or the port id for
	// LayerFabric link samples. Uncorrelated by design (Corr 0): samples
	// describe a rank at an instant, not a message.
	GaugeSample

	// kindSentinel marks the end of the Kind enum. Every kind above must
	// also appear in kindNames; the exhaustive round-trip test in
	// trace_test.go walks [SendPosted, kindSentinel) so a kind added
	// without a name (the PR-8 HWColl range bug) fails loudly.
	kindSentinel
)

// kindNames is every kind's rendered name; Kind.String reads it, and a
// kind left without one renders as Kind(n), which the round-trip test
// refuses.
var kindNames = [kindSentinel]string{
	SendPosted:      "send-posted",
	RecvPosted:      "recv-posted",
	FirstArrived:    "first-arrived",
	Matched:         "matched",
	Unexpected:      "unexpected",
	AckArrived:      "ack-arrived",
	SendProgressed:  "send-progressed",
	RecvProgressed:  "recv-progressed",
	SendCompleted:   "send-completed",
	RecvCompleted:   "recv-completed",
	PTLEagerTx:      "eager-tx",
	PTLRndvTx:       "rndv-tx",
	PTLAckTx:        "ack-tx",
	PTLPutIssued:    "put-issued",
	PTLGetIssued:    "get-issued",
	PTLFinRx:        "fin-rx",
	PTLFinAckRx:     "fin-ack-rx",
	PTLCQRecord:     "cq-record",
	QDMAIssued:      "qdma-issued",
	RDMAWriteIssued: "rdma-write-issued",
	RDMAReadIssued:  "rdma-read-issued",
	DMACompleted:    "dma-completed",
	QDMADeposited:   "qdma-deposited",
	QDMARetried:     "qdma-retried",
	ChainFired:      "chain-fired",
	PktSent:         "pkt-sent",
	PktDelivered:    "pkt-delivered",
	HWCollUp:        "hwcoll-up",
	HWCollDone:      "hwcoll-done",
	NBCPosted:       "nbc-posted",
	NBCPhase:        "nbc-phase",
	NBCCompleted:    "nbc-completed",
	ProgressDuty:    "progress-duty",
	CollEnter:       "coll-enter",
	CollExit:        "coll-exit",
	GaugeSample:     "gauge-sample",
}

func (k Kind) String() string {
	if k < kindSentinel && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one timeline entry. Rank is the emitting process's rank (for
// NIC events, the owning context's VPID; for fabric events, the source
// port). ReqID identifies the request or descriptor the event belongs to
// within (Rank, Layer) — span exporters pair begin/end kinds through it.
// Corr, when non-zero, is the cross-rank correlator: the *sending* rank's
// PML request id this event serves, regardless of which rank or layer
// emitted it. The profiler (internal/obs) stitches one message's lifecycle
// across both endpoints and the NIC through it.
type Event struct {
	At    simtime.Time
	Rank  int
	Layer Layer
	Kind  Kind
	ReqID uint64
	Peer  int
	Tag   int
	Bytes int
	Corr  uint64
}

// Collective op codes, carried in the Tag of CollEnter/CollExit events.
// Defined here (not in mpi) so the wait-state analyzer can name them
// without importing the MPI layer.
const (
	CollOpBarrier   = 1
	CollOpBcast     = 2
	CollOpAllreduce = 3
)

// CollOpName renders a collective op code.
func CollOpName(op int) string {
	switch op {
	case CollOpBarrier:
		return "barrier"
	case CollOpBcast:
		return "bcast"
	case CollOpAllreduce:
		return "allreduce"
	}
	return fmt.Sprintf("coll-op-%d", op)
}

// MsgID packs a message's global identity — the sending rank and its
// send-side PML request id — into one Corr value. The rank is offset by
// one so a valid id is never zero (zero Corr means "uncorrelated").
func MsgID(srcRank int, sendReq uint64) uint64 {
	return uint64(srcRank+1)<<40 | (sendReq & (1<<40 - 1))
}

// MsgID is the correlator a layer stamps on the events and descriptors of
// the message srcRank sent under sendReq: zero (uncorrelated, nothing to
// compute) when no recorder is attached, so it is safe on a nil receiver.
func (r *Recorder) MsgID(srcRank int, sendReq uint64) uint64 {
	if r == nil {
		return 0
	}
	return MsgID(srcRank, sendReq)
}

// SplitMsgID undoes MsgID.
func SplitMsgID(id uint64) (srcRank int, sendReq uint64) {
	return int(id>>40) - 1, id & (1<<40 - 1)
}

// Recorder accumulates events. One Recorder may serve all layers of all
// ranks of a simulation (the simulation is cooperative, so appends never
// race).
//
// The stream lives in fixed blocks, each written once and never copied,
// resized or moved: recording costs the 64 bytes of the event and, once a
// block, one allocation (DESIGN.md §8.6).
type Recorder struct {
	blocks  [][]Event // in record order; all but the last are full
	n       int       // events in blocks
	limit   int
	dropped int64
}

// Block capacities double from firstBlock to maxBlock and stay there. The
// first is small because a sharded run holds one recorder per node, a
// thousand of them at 1024 ranks; the cap bounds what the last block
// leaves unused (256 KB).
const (
	firstBlock = 64
	maxBlock   = 4096
)

// NewRecorder returns a recorder keeping at most limit events
// (0 = unlimited). Events past the limit are counted, not kept. Nothing is
// allocated until events arrive, so a generous limit costs nothing.
func NewRecorder(limit int) *Recorder { return &Recorder{limit: limit} }

// Record appends an event unless the limit is reached, in which case the
// event is counted as dropped.
func (r *Recorder) Record(e Event) {
	last := len(r.blocks) - 1
	if last < 0 || len(r.blocks[last]) == cap(r.blocks[last]) {
		if r.limit > 0 && r.n >= r.limit {
			r.dropped++
			return
		}
		size := firstBlock
		if last >= 0 {
			size = min(2*cap(r.blocks[last]), maxBlock)
		}
		if r.limit > 0 {
			// The last block ends at the limit, so only a full block has
			// to ask whether the limit is reached.
			size = min(size, r.limit-r.n)
		}
		r.blocks = append(r.blocks, make([]Event, 0, size))
		last++
	}
	r.blocks[last] = append(r.blocks[last], e)
	r.n++
}

// Events returns a copy of the recorded events in record order, as one
// slice allocated at their number. The copy is defensive: callers may sort
// or mutate the returned slice without corrupting the recorder's stream.
// Readers that only look use All or Ordered.
func (r *Recorder) Events() []Event { return slices.Concat(r.blocks...) }

// All walks the recorded events in record order, in place: the read path
// that copies nothing. Nothing may be recorded while a walk is under way.
func (r *Recorder) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for _, b := range r.blocks {
			for _, e := range b {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// Ordered walks the recorded events as the time-ordered view (see the
// function Ordered): in place when the stream was recorded in time order,
// which one linear pass finds out, and over one stably sorted copy
// otherwise.
func (r *Recorder) Ordered() iter.Seq[Event] {
	prev := simtime.Time(math.MinInt64)
	for e := range r.All() {
		if e.At < prev {
			return slices.Values(sortByTime(r.Events()))
		}
		prev = e.At
	}
	return r.All()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return r.n }

// Dropped returns how many events were discarded after the limit filled.
func (r *Recorder) Dropped() int64 { return r.dropped }

// ByKind counts events of each kind.
func (r *Recorder) ByKind() map[Kind]int {
	out := make(map[Kind]int)
	for e := range r.All() {
		out[e.Kind]++
	}
	return out
}

// Render formats the timeline sorted by virtual time, one line per event,
// with per-line deltas. A trailing "(+N dropped)" line reports events lost
// to the recorder limit rather than truncating silently.
func (r *Recorder) Render() string { return render(r.Ordered(), r.dropped) }

// Ordered returns events as the time-ordered view every renderer,
// exporter and analyzer walks: At non-decreasing, events of one instant in
// their input order. Whether that takes a sort is a property of the input,
// found by one linear pass. A stream already in order — whatever a
// simulation recorded at its kernel's clock — is returned as it is,
// uncopied, and callers only read it; anything else comes back as one
// stably sorted copy.
func Ordered(events []Event) []Event {
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			return sortByTime(slices.Clone(events))
		}
	}
	return events
}

// sortByTime sorts evs by At in place, events of one instant keeping their
// order, and returns it.
func sortByTime(evs []Event) []Event {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// RenderEvents formats an event slice the way Recorder.Render does,
// letting callers render a filtered view of the stream. dropped > 0
// appends the "(+N dropped)" trailer.
func RenderEvents(events []Event, dropped int64) string {
	return render(slices.Values(Ordered(events)), dropped)
}

// render formats events, which must be in time order.
func render(events iter.Seq[Event], dropped int64) string {
	var b strings.Builder
	var prev simtime.Time
	for e := range events {
		fmt.Fprintf(&b, "%12.3fus (+%8.3f) rank %d %-6s %-17s req=%-4d peer=%-3d tag=%-6d bytes=%d\n",
			e.At.Micros(), e.At.Sub(prev).Micros(), e.Rank, e.Layer, e.Kind, e.ReqID, e.Peer, e.Tag, e.Bytes)
		prev = e.At
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "(+%d dropped)\n", dropped)
	}
	return b.String()
}

// Filter selects events by layer names, kind names and rank. Layers and
// kinds are comma-separated lists of the names Render prints ("pml",
// "matched", …); an empty string means any. rank < 0 means any rank.
// Unknown layer or kind names return an error listing the valid values.
func Filter(events []Event, layers, kinds string, rank int) ([]Event, error) {
	laySet, err := parseNames(layers, layerByName(), "layer")
	if err != nil {
		return nil, err
	}
	kindSet, err := parseNames(kinds, kindByName(), "kind")
	if err != nil {
		return nil, err
	}
	var out []Event
	for _, e := range events {
		if laySet != nil && !laySet[uint8(e.Layer)] {
			continue
		}
		if kindSet != nil && !kindSet[uint8(e.Kind)] {
			continue
		}
		if rank >= 0 && e.Rank != rank {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// layerSentinel marks the end of the Layer enum; layerByName and the
// round-trip test walk [LayerPML, layerSentinel).
const layerSentinel = LayerCluster + 1

// layerByName maps every layer's rendered name back to its value.
func layerByName() map[string]uint8 {
	out := make(map[string]uint8)
	for l := LayerPML; l < layerSentinel; l++ {
		out[l.String()] = uint8(l)
	}
	return out
}

// kindByName maps every kind's rendered name back to its value.
func kindByName() map[string]uint8 {
	out := make(map[string]uint8)
	for k := SendPosted; k < kindSentinel; k++ {
		out[k.String()] = uint8(k)
	}
	return out
}

// parseNames resolves a comma-separated name list against a name table,
// returning nil for "match everything" when the list is empty.
func parseNames(list string, table map[string]uint8, what string) (map[uint8]bool, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	out := make(map[uint8]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		v, ok := table[name]
		if !ok {
			valid := make([]string, 0, len(table))
			for n := range table {
				valid = append(valid, n)
			}
			sort.Strings(valid)
			return nil, fmt.Errorf("unknown %s %q (valid: %s)", what, name, strings.Join(valid, ", "))
		}
		out[v] = true
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
