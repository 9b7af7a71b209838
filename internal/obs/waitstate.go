// Wait-state attribution (DESIGN.md §8.4): a post-hoc analyzer in the
// critical-path profiler's vein that walks the correlated event stream
// and classifies every wait a rank experienced into the classic
// taxonomy — late-sender (a receive posted before its matching send),
// late-receiver (a message arriving unexpected and sitting unmatched),
// wait-at-barrier (early arrival at a collective epoch), and
// NIC-contention (QDMA retry stalls) — aggregated per rank, per peer
// pair and per collective epoch, with arrival-skew statistics at
// Barrier/Allreduce split by host software trees vs. NIC combine trees.
//
// Reconciliation with the PR-4 phase breakdowns holds by construction:
// a late-receiver wait is exactly the message's "match" phase
// (Matched − FirstArrived, gated on an Unexpected event), a
// NIC-contention wait lies inside its wire phase, so their sum never
// exceeds the message's end-to-end latency; a late-sender wait
// (SendPosted − RecvPosted) precedes the message's lifetime and is
// bounded by the receiver's post-to-match window. Like every analyzer
// here this runs after the simulation and only reads the stream.
package obs

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// WaitKind classifies one attributed wait.
type WaitKind uint8

// The wait-state taxonomy.
const (
	WaitLateSender WaitKind = iota
	WaitLateReceiver
	WaitBarrier
	WaitNIC

	numWaitKinds
)

var waitKindNames = [numWaitKinds]string{"late-sender", "late-receiver", "wait-at-barrier", "nic-contention"}

func (k WaitKind) String() string { return enumName(waitKindNames[:], k, "WaitKind") }

// Wait is one classified wait interval.
type Wait struct {
	Kind WaitKind
	// Rank is the rank charged with waiting; Peer the partner it waited
	// on (the late sender, the late receiver, the retried QDMA's
	// destination; -1 for collective waits, where the partner is the
	// whole epoch).
	Rank int
	Peer int
	// Corr is the message correlator (point-to-point kinds); Epoch and
	// Op identify the collective (WaitBarrier), with NIC distinguishing
	// the combine-tree path.
	Corr  uint64
	Epoch uint64
	Op    int
	NIC   bool
	At    simtime.Time // when the wait began
	Dur   simtime.Duration
}

// PairWaits aggregates the waits of one (rank, peer) pair, directional:
// Rank waited on Peer. A per-rank row sums every wait charged to Rank and
// has Peer -1.
type PairWaits struct {
	Rank, Peer int
	Total      simtime.Duration
	ByKind     [numWaitKinds]simtime.Duration
	Counts     [numWaitKinds]int
}

// CollEpoch is one collective epoch's arrival analysis: who entered
// when, and how much skew the last arrival imposed.
type CollEpoch struct {
	ID     uint64 // the CollEnter events' ReqID (comm id ≪ 22 | sequence)
	Op     int    // trace.CollOp code
	NIC    bool   // NIC combine tree vs host software tree
	Ranks  []int  // members seen, ascending
	First  simtime.Time
	Last   simtime.Time
	Exit   simtime.Time       // latest CollExit (zero when unrecorded)
	Skews  []simtime.Duration // per-rank arrival skew, Ranks order
	MaxUS  float64
	MeanUS float64
}

// WaitProfile is the result of AnalyzeWaits.
type WaitProfile struct {
	// Waits is every classified wait, ordered by (start, rank, kind).
	Waits []Wait
	// ByRank aggregates per charged rank, ascending; Peer is -1.
	ByRank []PairWaits
	// ByPair aggregates the directional point-to-point pairs, ordered by
	// (rank, peer).
	ByPair []PairWaits
	// Epochs is every collective epoch with at least two recorded
	// members, in first-arrival order.
	Epochs []CollEpoch
	// Messages is how many correlated messages the walk covered.
	Messages int
}

// AnalyzeWaits classifies every wait in the event stream. It charges
// point-to-point waits from the instants the critical-path reconstruction
// records in its one walk over each message, joins receive-post times
// through (rank, request id) — RecvPosted events are uncorrelated; the
// Matched event names the request — and collective epochs through
// CollEnter/CollExit.
func AnalyzeWaits(events []trace.Event) WaitProfile {
	ix := newIndex(events)
	waits := make([]instants, len(ix.corrs))
	ms := ix.messages(waits)
	p := WaitProfile{Messages: len(ms)}
	for _, m := range ms {
		g, _ := ix.group.get(trace.SplitMsgID(m.Corr))
		w := &waits[g]
		if w.send != nil && w.match != nil {
			if pos, ok := ix.recvPost.get(m.Dst, w.match.ReqID); ok && w.send.At > ix.evs[pos].At {
				post := ix.evs[pos].At
				p.Waits = append(p.Waits, Wait{
					Kind: WaitLateSender, Rank: m.Dst, Peer: m.Src, Corr: m.Corr,
					At: post, Dur: w.send.At.Sub(post),
				})
			}
		}
		if w.unexpected && w.arrive != nil && w.match != nil && w.match.At > w.arrive.At {
			p.Waits = append(p.Waits, Wait{
				Kind: WaitLateReceiver, Rank: m.Src, Peer: m.Dst, Corr: m.Corr,
				At: w.arrive.At, Dur: w.match.At.Sub(w.arrive.At),
			})
		}
		if w.deposit != nil && w.deposit.At > w.retry.At {
			p.Waits = append(p.Waits, Wait{
				Kind: WaitNIC, Rank: m.Src, Peer: m.Dst, Corr: m.Corr,
				At: w.retry.At, Dur: w.deposit.At.Sub(w.retry.At),
			})
		}
	}

	p.Epochs = ix.collectEpochs()
	for _, ep := range p.Epochs {
		for i, rank := range ep.Ranks {
			if ep.Skews[i] <= 0 {
				continue
			}
			p.Waits = append(p.Waits, Wait{
				Kind: WaitBarrier, Rank: rank, Peer: -1,
				Epoch: ep.ID, Op: ep.Op, NIC: ep.NIC,
				At: ep.Last.Add(-ep.Skews[i]), Dur: ep.Skews[i],
			})
		}
	}

	slices.SortStableFunc(p.Waits, func(a, b Wait) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Kind, b.Kind))
	})
	p.ByRank = sumWaits(p.Waits, false)
	p.ByPair = sumWaits(p.Waits, true)
	return p
}

// collectEpochs groups CollEnter/CollExit by (epoch id, op) and derives
// per-rank arrival skew. Epochs with a single recorded member carry no
// wait information and are dropped.
func (ix *index) collectEpochs() []CollEpoch {
	type key struct {
		id uint64
		op int
	}
	type acc struct {
		enter       map[int]simtime.Time // each rank's first entry
		first, last simtime.Time         // the earliest and the latest of them
		exit        simtime.Time
		nic         bool
	}
	accs := make(map[key]*acc)
	var order []key
	for _, pos := range ix.colls {
		e := &ix.evs[pos]
		k := key{e.ReqID, e.Tag}
		a := accs[k]
		if a == nil {
			a = &acc{enter: make(map[int]simtime.Time)}
			accs[k] = a
			order = append(order, k)
		}
		switch e.Kind {
		case trace.CollEnter:
			// The entries come in time order: the epoch's first entry is
			// the earliest, and a rank's first entry the latest so far.
			if _, ok := a.enter[e.Rank]; !ok {
				if len(a.enter) == 0 {
					a.first = e.At
				}
				a.enter[e.Rank], a.last = e.At, e.At
			}
			if e.Peer == 1 {
				a.nic = true
			}
		case trace.CollExit:
			if e.At > a.exit {
				a.exit = e.At
			}
		}
	}
	var out []CollEpoch
	for _, k := range order {
		a := accs[k]
		if len(a.enter) < 2 {
			continue
		}
		ep := CollEpoch{ID: k.id, Op: k.op, NIC: a.nic, Ranks: slices.Sorted(maps.Keys(a.enter)),
			First: a.first, Last: a.last, Exit: a.exit}
		sum := 0.0
		for _, rank := range ep.Ranks {
			skew := a.last.Sub(a.enter[rank])
			ep.Skews = append(ep.Skews, skew)
			us := skew.Micros()
			sum += us
			if us > ep.MaxUS {
				ep.MaxUS = us
			}
		}
		ep.MeanUS = sum / float64(len(ep.Ranks))
		out = append(out, ep)
	}
	slices.SortStableFunc(out, func(a, b CollEpoch) int {
		return cmp.Or(cmp.Compare(a.First, b.First), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// sumWaits folds waits into one row per (Rank, Peer), ascending. byPeer
// false sums each rank's waits into its row with Peer -1; byPeer true
// skips the collective waits, which have no pairwise partner.
func sumWaits(waits []Wait, byPeer bool) []PairWaits {
	row := make(map[[2]int]int)
	var out []PairWaits
	for _, w := range waits {
		k := [2]int{w.Rank, -1}
		if byPeer {
			if w.Peer < 0 {
				continue
			}
			k[1] = w.Peer
		}
		i, ok := row[k]
		if !ok {
			i = len(out)
			row[k] = i
			out = append(out, PairWaits{Rank: k[0], Peer: k[1]})
		}
		out[i].Total += w.Dur
		out[i].ByKind[w.Kind] += w.Dur
		out[i].Counts[w.Kind]++
	}
	slices.SortFunc(out, func(a, b PairWaits) int { return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Peer, b.Peer)) })
	return out
}

// skewBuckets are the arrival-skew histogram boundaries in microseconds;
// the last bucket is unbounded.
var skewBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// SkewStat is one (op, path) group's arrival-skew distribution across
// its epochs' per-rank skews.
type SkewStat struct {
	Op      int
	NIC     bool
	Epochs  int
	Samples int
	MeanUS  float64
	MaxUS   float64
	Buckets []int // len(skewBuckets)+1 counts
}

// SkewStats groups the profile's epochs by (op, path) in op order, host
// before NIC — the Barrier/Allreduce host-vs-NIC-tree comparison.
func (p WaitProfile) SkewStats() []SkewStat {
	type key struct {
		op  int
		nic bool
	}
	accs := make(map[key]*SkewStat)
	var keys []key
	for _, ep := range p.Epochs {
		k := key{ep.Op, ep.NIC}
		a := accs[k]
		if a == nil {
			a = &SkewStat{Op: ep.Op, NIC: ep.NIC, Buckets: make([]int, len(skewBuckets)+1)}
			accs[k] = a
			keys = append(keys, k)
		}
		a.Epochs++
		for _, skew := range ep.Skews {
			us := skew.Micros()
			a.Samples++
			a.MeanUS += us // the sum until every sample is in
			if us > a.MaxUS {
				a.MaxUS = us
			}
			b := len(skewBuckets)
			for i, lim := range skewBuckets {
				if us < lim {
					b = i
					break
				}
			}
			a.Buckets[b]++
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].op != keys[j].op {
			return keys[i].op < keys[j].op
		}
		return !keys[i].nic && keys[j].nic
	})
	var out []SkewStat
	for _, k := range keys {
		a := accs[k]
		if a.Samples > 0 {
			a.MeanUS /= float64(a.Samples)
		}
		out = append(out, *a)
	}
	return out
}

// collPath names a collective's execution path.
func collPath(nic bool) string {
	if nic {
		return "nic"
	}
	return "host"
}

// Render formats the full wait-state report: the taxonomy summary, the
// per-rank and per-pair aggregations, the collective epochs and the
// arrival-skew histograms. Deterministic for a deterministic stream.
func (p WaitProfile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wait states: %d waits over %d messages, %d collective epochs\n",
		len(p.Waits), p.Messages, len(p.Epochs))

	var totals [numWaitKinds]simtime.Duration
	var counts [numWaitKinds]int
	var maxes [numWaitKinds]simtime.Duration
	for _, w := range p.Waits {
		totals[w.Kind] += w.Dur
		counts[w.Kind]++
		if w.Dur > maxes[w.Kind] {
			maxes[w.Kind] = w.Dur
		}
	}
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %12s\n", "kind", "count", "total us", "mean us", "max us")
	for k := WaitKind(0); k < numWaitKinds; k++ {
		mean := 0.0
		if counts[k] > 0 {
			mean = totals[k].Micros() / float64(counts[k])
		}
		fmt.Fprintf(&b, "%-16s %8d %12.3f %12.3f %12.3f\n",
			k, counts[k], totals[k].Micros(), mean, maxes[k].Micros())
	}

	if len(p.ByRank) > 0 {
		fmt.Fprintf(&b, "per rank:\n%-9s %12s %12s %13s %15s %14s\n",
			"rank", "total us", "late-sender", "late-receiver", "wait-at-barrier", "nic-contention")
		for _, r := range p.ByRank {
			fmt.Fprintf(&b, "%-9d %12.3f %12.3f %13.3f %15.3f %14.3f\n",
				r.Rank, r.Total.Micros(),
				r.ByKind[WaitLateSender].Micros(), r.ByKind[WaitLateReceiver].Micros(),
				r.ByKind[WaitBarrier].Micros(), r.ByKind[WaitNIC].Micros())
		}
	}

	if len(p.ByPair) > 0 {
		b.WriteString("peer pairs (rank waited on peer):\n")
		fmt.Fprintf(&b, "%-11s %8s %12s %12s %13s %14s\n",
			"rank->peer", "waits", "total us", "late-sender", "late-receiver", "nic-contention")
		for _, pr := range p.ByPair {
			n := 0
			for _, c := range pr.Counts {
				n += c
			}
			fmt.Fprintf(&b, "%4d ->%4d %8d %12.3f %12.3f %13.3f %14.3f\n",
				pr.Rank, pr.Peer, n, pr.Total.Micros(),
				pr.ByKind[WaitLateSender].Micros(), pr.ByKind[WaitLateReceiver].Micros(),
				pr.ByKind[WaitNIC].Micros())
		}
	}

	if len(p.Epochs) > 0 {
		b.WriteString("collective epochs:\n")
		fmt.Fprintf(&b, "%-10s %-10s %-5s %6s %12s %12s %10s %10s\n",
			"epoch", "op", "path", "ranks", "first us", "last us", "skew-max", "skew-mean")
		for _, ep := range p.Epochs {
			fmt.Fprintf(&b, "%-10d %-10s %-5s %6d %12.3f %12.3f %10.3f %10.3f\n",
				ep.ID, trace.CollOpName(ep.Op), collPath(ep.NIC), len(ep.Ranks),
				ep.First.Micros(), ep.Last.Micros(), ep.MaxUS, ep.MeanUS)
		}
	}

	b.WriteString(p.RenderSkew())
	return b.String()
}

// RenderSkew formats the arrival-skew histograms at collectives, host
// trees against NIC trees; empty when no epochs were recorded.
func (p WaitProfile) RenderSkew() string {
	stats := p.SkewStats()
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("arrival skew at collectives (per-rank, host vs NIC trees):\n")
	fmt.Fprintf(&b, "%-10s %-5s %7s %8s %9s %9s |", "op", "path", "epochs", "samples", "mean us", "max us")
	for _, lim := range skewBuckets {
		fmt.Fprintf(&b, " %6s", fmt.Sprintf("<%gus", lim))
	}
	fmt.Fprintf(&b, " %6s\n", "more")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-10s %-5s %7d %8d %9.3f %9.3f |",
			trace.CollOpName(s.Op), collPath(s.NIC), s.Epochs, s.Samples, s.MeanUS, s.MaxUS)
		for _, c := range s.Buckets {
			fmt.Fprintf(&b, " %6d", c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
