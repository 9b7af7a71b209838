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
	"fmt"
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

func (k WaitKind) String() string {
	switch k {
	case WaitLateSender:
		return "late-sender"
	case WaitLateReceiver:
		return "late-receiver"
	case WaitBarrier:
		return "wait-at-barrier"
	case WaitNIC:
		return "nic-contention"
	}
	return fmt.Sprintf("WaitKind(%d)", uint8(k))
}

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

// RankWaits aggregates every wait charged to one rank.
type RankWaits struct {
	Rank   int
	Total  simtime.Duration
	ByKind [numWaitKinds]simtime.Duration
	Counts [numWaitKinds]int
}

// PairWaits aggregates the point-to-point waits of one (rank, peer)
// pair, directional: Rank waited on Peer.
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
	// ByRank aggregates per charged rank, ascending.
	ByRank []RankWaits
	// ByPair aggregates the directional point-to-point pairs, ordered by
	// (rank, peer).
	ByPair []PairWaits
	// Epochs is every collective epoch with at least two recorded
	// members, in first-arrival order.
	Epochs []CollEpoch
	// Messages is how many correlated messages the walk covered.
	Messages int
}

// AnalyzeWaits classifies every wait in the event stream. It reuses the
// critical-path reconstruction (Analyze, over the same index) for message
// identity, then joins receive-post times through (rank, request id) —
// RecvPosted events are uncorrelated; the Matched event names the
// request — and collective epochs through CollEnter/CollExit.
func AnalyzeWaits(events []trace.Event) WaitProfile {
	ix := newIndex(events)
	ms := ix.messages()
	var p WaitProfile
	p.Messages = len(ms)
	for _, m := range ms {
		var sendPostAt, firstArrAt, matchedAt, retryAt, depositAt simtime.Time
		var matchedReq uint64
		var haveSend, haveFirst, haveMatch, haveRetry, haveDeposit, unexpected bool
		for _, pos := range ix.events(ix.group[m.Corr]) {
			e := &ix.evs[pos]
			switch e.Kind {
			case trace.SendPosted:
				if !haveSend && e.Rank == m.Src {
					sendPostAt, haveSend = e.At, true
				}
			case trace.FirstArrived:
				if !haveFirst {
					firstArrAt, haveFirst = e.At, true
				}
			case trace.Unexpected:
				unexpected = true
			case trace.Matched:
				if !haveMatch {
					matchedAt, matchedReq, haveMatch = e.At, e.ReqID, true
				}
			case trace.QDMARetried:
				if !haveRetry {
					retryAt, haveRetry = e.At, true
				}
			case trace.QDMADeposited:
				if haveRetry && !haveDeposit && e.At >= retryAt {
					depositAt, haveDeposit = e.At, true
				}
			}
		}
		if haveSend && haveMatch {
			if post, ok := ix.recvPost[rankReq{m.Dst, matchedReq}]; ok && sendPostAt > post {
				p.Waits = append(p.Waits, Wait{
					Kind: WaitLateSender, Rank: m.Dst, Peer: m.Src, Corr: m.Corr,
					At: post, Dur: sendPostAt.Sub(post),
				})
			}
		}
		if unexpected && haveFirst && haveMatch && matchedAt > firstArrAt {
			p.Waits = append(p.Waits, Wait{
				Kind: WaitLateReceiver, Rank: m.Src, Peer: m.Dst, Corr: m.Corr,
				At: firstArrAt, Dur: matchedAt.Sub(firstArrAt),
			})
		}
		if haveRetry && haveDeposit && depositAt > retryAt {
			p.Waits = append(p.Waits, Wait{
				Kind: WaitNIC, Rank: m.Src, Peer: m.Dst, Corr: m.Corr,
				At: retryAt, Dur: depositAt.Sub(retryAt),
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

	sort.SliceStable(p.Waits, func(i, j int) bool {
		a, b := p.Waits[i], p.Waits[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Kind < b.Kind
	})
	p.ByRank = aggregateRankWaits(p.Waits)
	p.ByPair = aggregatePairWaits(p.Waits)
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
		enter map[int]simtime.Time
		exit  simtime.Time
		nic   bool
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
			if _, ok := a.enter[e.Rank]; !ok {
				a.enter[e.Rank] = e.At
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
		ep := CollEpoch{ID: k.id, Op: k.op, NIC: a.nic, Exit: a.exit}
		for rank := range a.enter {
			ep.Ranks = append(ep.Ranks, rank)
		}
		sort.Ints(ep.Ranks)
		first, last := a.enter[ep.Ranks[0]], a.enter[ep.Ranks[0]]
		for _, rank := range ep.Ranks[1:] {
			t := a.enter[rank]
			if t < first {
				first = t
			}
			if t > last {
				last = t
			}
		}
		ep.First, ep.Last = first, last
		sum := 0.0
		for _, rank := range ep.Ranks {
			skew := last.Sub(a.enter[rank])
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
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func aggregateRankWaits(waits []Wait) []RankWaits {
	accs := make(map[int]*RankWaits)
	var ranks []int
	for _, w := range waits {
		a := accs[w.Rank]
		if a == nil {
			a = &RankWaits{Rank: w.Rank}
			accs[w.Rank] = a
			ranks = append(ranks, w.Rank)
		}
		a.Total += w.Dur
		a.ByKind[w.Kind] += w.Dur
		a.Counts[w.Kind]++
	}
	sort.Ints(ranks)
	var out []RankWaits
	for _, r := range ranks {
		out = append(out, *accs[r])
	}
	return out
}

func aggregatePairWaits(waits []Wait) []PairWaits {
	type key struct{ rank, peer int }
	accs := make(map[key]*PairWaits)
	var keys []key
	for _, w := range waits {
		if w.Peer < 0 {
			continue // collective waits have no pairwise partner
		}
		k := key{w.Rank, w.Peer}
		a := accs[k]
		if a == nil {
			a = &PairWaits{Rank: w.Rank, Peer: w.Peer}
			accs[k] = a
			keys = append(keys, k)
		}
		a.Total += w.Dur
		a.ByKind[w.Kind] += w.Dur
		a.Counts[w.Kind]++
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].peer < keys[j].peer
	})
	var out []PairWaits
	for _, k := range keys {
		out = append(out, *accs[k])
	}
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
	sum := make(map[key]float64)
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
			sum[k] += us
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
			a.MeanUS = sum[k] / float64(a.Samples)
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
