// The trace index (DESIGN.md §8.5): the one regrouping of an event stream
// that every analyzer reads. It is built once per stream, in two linear
// passes, and holds positions into the time-ordered view rather than
// events — a 64-byte event is never copied into a per-message slice, and
// a stream that arrives in time order is never copied at all.
package obs

import (
	"slices"

	"qsmpi/internal/trace"
)

type index struct {
	// evs is the time-ordered view (trace.Ordered): the caller's slice
	// when it is in order already. Read-only.
	evs []trace.Event
	// Message groups in first-seen order, as CSR arrays: group g is
	// message corrs[g] and its events, in time order, are evs[p] for p in
	// pos[start[g]:start[g+1]]. group maps a correlator back to g.
	corrs []uint64
	start []int32
	pos   []int32
	group reqTable
	// recvPost is the position of each request's first RecvPosted: those
	// events are uncorrelated, the Matched event names the request.
	recvPost reqTable
	// colls is the positions of the CollEnter/CollExit events.
	colls []int32
}

func newIndex(events []trace.Event) *index {
	ix := &index{evs: trace.Ordered(events)}
	// A simulation records several events per request, so the request
	// ids of its ranks fit in two slots an event even when they are
	// sparse; whatever does not goes to the maps.
	ix.group.limit = 2*len(ix.evs) + 1024
	ix.recvPost.limit = ix.group.limit
	// Pass 1: name the groups and size them.
	for i := range ix.evs {
		e := &ix.evs[i]
		switch e.Kind {
		case trace.RecvPosted:
			ix.recvPost.add(e.Rank, e.ReqID, int32(i))
		case trace.CollEnter, trace.CollExit:
			ix.colls = append(ix.colls, int32(i))
		}
		if !inMessage(e) {
			continue
		}
		src, req := trace.SplitMsgID(e.Corr)
		g, fresh := ix.group.add(src, req, int32(len(ix.corrs)))
		if fresh {
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
		if e := &ix.evs[i]; inMessage(e) {
			src, req := trace.SplitMsgID(e.Corr)
			g, _ := ix.group.get(src, req)
			ix.pos[fill[g]] = int32(i)
			fill[g]++
		}
	}
	return ix
}

// inMessage reports whether e belongs to a message's group: it is
// correlated, and not a collective epoch's or an NBC schedule's marker,
// whose correlators name no message.
func inMessage(e *trace.Event) bool {
	switch e.Kind {
	case trace.CollEnter, trace.CollExit, trace.NBCPosted, trace.NBCPhase, trace.NBCCompleted:
		return false
	}
	return e.Corr != 0
}

// events returns the positions of group g's events, in time order.
func (ix *index) events(g int32) []int32 {
	return ix.pos[ix.start[g]:ix.start[g+1]]
}

// maxDenseRank bounds the slice of a rankTable: a rank at or above it, or
// below zero, is looked up in a map, so no such rank costs a table its own
// size.
const maxDenseRank = 1 << 14

// rankTable holds one T per rank, created on first use: through a slice
// for the ranks a simulation has, through a map for the negative or huge
// ones a hand-built stream or a correlator trace.MsgID did not mint can
// carry. Each T has its own allocation, so a pointer at returned stays the
// rank's while the slice grows.
type rankTable[T any] struct {
	dense  []*T
	sparse map[int]*T
}

// get returns rank's T, or nil when at never made one.
func (t *rankTable[T]) get(rank int) *T {
	if uint(rank) < uint(len(t.dense)) {
		return t.dense[rank]
	}
	return t.sparse[rank]
}

// at returns rank's T, making it on first use.
func (t *rankTable[T]) at(rank int) *T {
	if v := t.get(rank); v != nil {
		return v
	}
	v := new(T)
	if uint(rank) >= maxDenseRank {
		if t.sparse == nil {
			t.sparse = make(map[int]*T)
		}
		t.sparse[rank] = v
		return v
	}
	if rank >= len(t.dense) {
		t.dense = append(t.dense, make([]*T, rank+1-len(t.dense))...)
	}
	t.dense[rank] = v
	return v
}

// reqTable maps (rank, request id) to an int32 without hashing for the
// keys a simulation produces — request ids are numbered from 1 per PML
// stack, so a rank's slots are a short dense slice — and through the
// rank's map for a request id that would take the slices past their
// limit. Which side holds a key is fixed the first time add sees it: a
// request id at or above the limit is never in range, and a rank's slice
// stops growing the first time it would take the slices past it, so a
// key the map took never comes into a slice's range later.
type reqTable struct {
	ranks rankTable[reqSlots]
	// limit is how many slots all slices may hold together; used counts
	// those they do.
	limit, used int
}

// reqSlots is one rank's values, plus one, by request id: 0 is none.
type reqSlots struct {
	at    []int32
	full  bool             // would have gone over the limit once: never grows again
	other map[uint64]int32 // the request ids the slice does not hold
}

// add stores v (≥ 0) under (rank, req) unless a value is there already,
// and returns the value stored and whether it is v.
func (t *reqTable) add(rank int, req uint64, v int32) (int32, bool) {
	s := t.ranks.at(rank)
	if p := t.slot(s, req); p != nil {
		if *p == 0 {
			*p = v + 1
			return v, true
		}
		return *p - 1, false
	}
	if old, ok := s.other[req]; ok {
		return old, false
	}
	if s.other == nil {
		s.other = make(map[uint64]int32)
	}
	s.other[req] = v
	return v, true
}

// get returns the value stored under (rank, req), if any.
func (t *reqTable) get(rank int, req uint64) (int32, bool) {
	s := t.ranks.get(rank)
	if s == nil {
		return 0, false
	}
	if req < uint64(len(s.at)) {
		return s.at[req] - 1, s.at[req] != 0
	}
	v, ok := s.other[req]
	return v, ok
}

// slot returns the slice slot of req in s, doubling the slice to reach it
// within the limit, or nil when the key belongs to the map.
func (t *reqTable) slot(s *reqSlots, req uint64) *int32 {
	if req >= uint64(t.limit) {
		return nil
	}
	if have := uint64(len(s.at)); req >= have {
		room := uint64(t.limit - t.used)
		if s.full || req+1-have > room {
			s.full = true
			return nil
		}
		at := make([]int32, min(max(req+1, 2*have), have+room))
		copy(at, s.at)
		t.used += len(at) - len(s.at)
		s.at = at
	}
	return &s.at[req]
}
