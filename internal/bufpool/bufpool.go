// Package bufpool provides size-classed free lists for the transient
// []byte staging buffers the simulator's hot paths churn through: PML
// pack/unpack scratch, TCP segment and reassembly buffers, and Elan4 QDMA
// payload copies. It is the wall-clock analogue of the paper's §5
// preallocated 2 KB send-buffer pool: instead of allocating per message,
// buffers are recycled through power-of-two classes.
//
// Pools are deliberately NOT safe for concurrent use and take no locks:
// the discrete-event kernel runs exactly one simulated entity at a time,
// so each component (a PML stack, a PTL module, a NIC) owns its own pool.
// Buffers may migrate between pools (a sender's copy released into the
// receiver's pool); that is fine, a pool is just recycled storage.
//
// Determinism note: recycling changes only memory identity, never
// simulated time. Returned buffers have undefined contents; every caller
// fully overwrites the bytes it uses, as they already did with make().
package bufpool

const (
	minClassBits = 6  // smallest class: 64 B
	maxClassBits = 21 // largest class: 2 MiB; bigger requests fall through
	numClasses   = maxClassBits - minClassBits + 1
)

// Stats counts pool effectiveness for the observability surface.
type Stats struct {
	Gets   int64 // total Get calls
	Hits   int64 // Gets served from a free list
	Puts   int64 // buffers recycled
	Oversz int64 // requests above the largest class (plain make)
}

// Pool is a set of power-of-two size-classed free lists.
type Pool struct {
	free  [numClasses][][]byte
	stats Stats
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Stats returns a copy of the counters.
func (p *Pool) Stats() Stats { return p.stats }

// classFor returns the smallest class index whose capacity holds n, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	c := 0
	size := 1 << minClassBits
	for size < n {
		size <<= 1
		c++
	}
	if c >= numClasses {
		return -1
	}
	return c
}

// Get returns a buffer of length n with undefined contents. Zero-length
// requests return an empty non-nil slice.
func (p *Pool) Get(n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	p.stats.Gets++
	if n == 0 {
		return []byte{}
	}
	c := classFor(n)
	if c < 0 {
		p.stats.Oversz++
		return make([]byte, n)
	}
	if l := p.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[c] = l[:len(l)-1]
		p.stats.Hits++
		return b[:n]
	}
	return make([]byte, n, 1<<(minClassBits+c))
}

// Put recycles b. The caller must not touch b afterwards. Buffers whose
// capacity is not an exact class size (including oversize allocations and
// foreign slices) are dropped to the garbage collector.
func (p *Pool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(minClassBits+c) {
		return
	}
	p.stats.Puts++
	p.free[c] = append(p.free[c], b[:0])
}

// ListStats counts a FreeList's traffic: objects taken (recycled, or found
// missing and allocated by the caller) and returned. Gets == Puts at
// quiescence means every one went back.
type ListStats struct{ Gets, Puts int64 }

// FreeList recycles the objects a component makes per message or packet:
// descriptors, events, delivery contexts. Like Pool it takes no locks and
// belongs to one simulated component; nothing is preallocated. The zero
// value is an empty list.
type FreeList[T any] struct {
	free  []*T
	stats ListStats
}

// Get returns a recycled object, or nil when the list is empty: the caller
// then allocates one and binds the closures it caches, once for its life.
// Either way the object counts as taken.
func (l *FreeList[T]) Get() *T {
	l.stats.Gets++
	n := len(l.free)
	if n == 0 {
		return nil
	}
	p := l.free[n-1]
	l.free = l.free[:n-1]
	return p
}

// Take is Get for objects that cache nothing: a recycled one or a new one.
func (l *FreeList[T]) Take() *T {
	if p := l.Get(); p != nil {
		return p
	}
	return new(T)
}

// Put overwrites *p with reset — the zero value but for what the object
// caches — and recycles it: a stale pointer then finds nil fields, not the
// next message's. The caller must not touch p afterwards.
func (l *FreeList[T]) Put(p *T, reset T) {
	*p = reset
	l.stats.Puts++
	l.free = append(l.free, p)
}

// Len returns how many recycled objects the list holds.
func (l *FreeList[T]) Len() int { return len(l.free) }

// Stats returns a copy of the counters.
func (l *FreeList[T]) Stats() ListStats { return l.stats }
