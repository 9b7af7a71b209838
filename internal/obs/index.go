// The trace index (DESIGN.md §8.5): the one regrouping of an event stream
// that every analyzer reads. It is built once per stream, in two linear
// passes, and holds positions into the time-ordered view rather than
// events — a 64-byte event is never copied into a per-message slice, and
// a stream that arrives in time order is never copied at all.
package obs

import (
	"slices"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// rankReq names one request of one rank.
type rankReq struct {
	rank int
	req  uint64
}

type index struct {
	// evs is the time-ordered view (trace.Ordered): the caller's slice
	// when it is in order already. Read-only.
	evs []trace.Event
	// Corr groups in first-seen order, as CSR arrays: group g is message
	// corrs[g] and its events, in time order, are evs[p] for p in
	// pos[start[g]:start[g+1]]. group maps a correlator back to g.
	corrs []uint64
	start []int32
	pos   []int32
	group map[uint64]int32
	// recvPost is the time of each request's first RecvPosted: those
	// events are uncorrelated, the Matched event names the request.
	recvPost map[rankReq]simtime.Time
	// colls is the positions of the CollEnter/CollExit events.
	colls []int32
}

func newIndex(events []trace.Event) *index {
	ix := &index{
		evs:      trace.Ordered(events),
		group:    make(map[uint64]int32),
		recvPost: make(map[rankReq]simtime.Time),
	}
	// Pass 1: name the groups and size them.
	for i := range ix.evs {
		e := &ix.evs[i]
		switch e.Kind {
		case trace.RecvPosted:
			k := rankReq{e.Rank, e.ReqID}
			if _, ok := ix.recvPost[k]; !ok {
				ix.recvPost[k] = e.At
			}
		case trace.CollEnter, trace.CollExit:
			ix.colls = append(ix.colls, int32(i))
		}
		if e.Corr == 0 {
			continue
		}
		g, ok := ix.group[e.Corr]
		if !ok {
			g = int32(len(ix.corrs))
			ix.group[e.Corr] = g
			ix.corrs = append(ix.corrs, e.Corr)
			ix.start = append(ix.start, 0)
		}
		ix.start[g]++
	}
	// Sizes to offsets.
	ix.start = append(ix.start, 0)
	sum := int32(0)
	for g, n := range ix.start {
		ix.start[g], sum = sum, sum+n
	}
	// Pass 2: drop each correlated event's position into its group.
	ix.pos = make([]int32, sum)
	fill := slices.Clone(ix.start)
	for i := range ix.evs {
		if corr := ix.evs[i].Corr; corr != 0 {
			g := ix.group[corr]
			ix.pos[fill[g]] = int32(i)
			fill[g]++
		}
	}
	return ix
}

// events returns the positions of group g's events, in time order.
func (ix *index) events(g int32) []int32 {
	return ix.pos[ix.start[g]:ix.start[g+1]]
}
