package simtime

// Signal is a one-shot broadcast event. Procs that Wait before Fire block;
// once fired, Wait returns immediately forever after. It is the simulated
// analogue of a completion notification (a "host event" in Elan terms is
// built on top of it).
type Signal struct {
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and wakes all waiters. Firing twice is a
// no-op, matching one-shot semantics.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, p := range s.waiters {
		p.readyAt(0, "signal")
	}
	s.waiters = nil
}

// Wait blocks p until the signal fires. Returns immediately if already
// fired.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Counter is a monotonically increasing counter that procs can wait on.
// It models word-sized "event" locations that hardware increments and
// hosts poll or block on.
type Counter struct {
	value   int64
	waiters []counterWait
}

type counterWait struct {
	target int64
	p      *Proc
}

// NewCounter returns a counter at zero.
func NewCounter() *Counter { return &Counter{} }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.value }

// Add increments the counter and wakes any waiter whose target has been
// reached.
func (c *Counter) Add(n int64) {
	c.value += n
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if c.value >= w.target {
			w.p.readyAt(0, "counter")
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
}

// WaitFor blocks p until the counter reaches at least target.
func (c *Counter) WaitFor(p *Proc, target int64) {
	if c.value >= target {
		return
	}
	c.waiters = append(c.waiters, counterWait{target: target, p: p})
	p.park()
}

// Queue is a plain FIFO. Pop zeroes the slot it vacates, so a value that
// has left the queue is not kept reachable by the backing array, and a
// queue that drains starts over in place, so one that keeps emptying — a
// descriptor queue, a mailbox — reuses its array instead of walking off
// the end of it.
type Queue[T any] struct{ items []T }

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends v.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the oldest value, if there is one.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	var zero T
	v, q.items[0] = q.items[0], zero
	if len(q.items) == 1 {
		q.items = q.items[:0]
	} else {
		q.items = q.items[1:]
	}
	return v, true
}

// Semaphore is a counting semaphore with FIFO acquisition order. It models
// contended resources: CPUs, DMA engines, bus and link arbiters.
type Semaphore struct {
	avail   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n initially available units.
func NewSemaphore(n int) *Semaphore {
	if n < 0 {
		panic("simtime: negative semaphore size")
	}
	return &Semaphore{avail: n}
}

// Available returns the number of free units.
func (s *Semaphore) Available() int { return s.avail }

// Acquire blocks p until a unit is available and takes it. Waiters are
// served strictly FIFO so resource arbitration is fair and deterministic.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 && len(s.waiters) == 0 {
		s.avail--
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
	// The releaser transferred a unit directly to us.
}

// TryAcquire takes a unit if one is immediately available.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 && len(s.waiters) == 0 {
		s.avail--
		return true
	}
	return false
}

// Release returns a unit, handing it directly to the oldest waiter if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = s.waiters[1:]
		p.readyAt(0, "sem")
		return
	}
	s.avail++
}
