package simtime

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// event is a scheduled kernel action: either a timer callback or the
// resumption of a parked process. Proc wakes store the proc pointer
// directly instead of a closure — waking is the single hottest schedule
// path, and the pointer form costs no allocation per wake (name then
// holds only the wake reason; the traced label is composed lazily).
type event struct {
	at   Time
	seq  int64 // tie-breaker: FIFO among events at the same instant
	name string
	fn   func()
	proc *Proc
	// next is the slab slot after this one on its bucket's list; on the
	// free list, the next free slot + 1, 0 at the end.
	next int32
	// cancelable marks a cancel-on-idle event: dropped, not executed,
	// when only such events remain pending.
	cancelable bool
}

// run executes the event: it resumes the proc, or calls the callback.
func (e *event) run() {
	if e.proc != nil {
		e.proc.resume()
		return
	}
	e.fn()
}

// eventQueue is a monotone radix queue ordered by (at, seq). last is the
// time of the latest pop, and every pending event lies at or after it:
// schedule refuses a time before its shard's now, and now ≥ last. An event
// goes into bucket bits.Len64(at ^ last), so bucket 0 holds the events at
// last and every event of bucket b is earlier than every event of bucket
// b+1. A pop takes bucket 0's head; when bucket 0 is empty, it takes the
// lowest non-empty bucket's minimum, which becomes last, and moves the
// rest of that bucket down to lower buckets, all of them empty until then.
//
// Bucket 0 keeps its events in seq order, so it is FIFO among the events
// at last; every other bucket keeps its least (at, seq) event in lo. A
// shard does not push its seqs in increasing order: a commit replayed at
// an epoch barrier schedules under the global sequence, below the strided
// seqs the epoch has just pushed, and may land at the same instant as one
// of them. So lo is chosen by (at, seq), not by time alone, and an event
// linked into bucket 0 with a seq below its tail's is inserted in order —
// a walk taken only after such a merge, or when a bucket moving down puts
// events of one instant there out of order. The pop order is exactly
// (at, seq).
//
// Events live by value in one slab; the bucket lists and the free list
// are slot indices threaded through it, so once the slab has grown to the
// deepest the queue has been, scheduling allocates nothing — however far
// the clock runs. The zero value is an empty queue.
type eventQueue struct {
	slab []event
	// head[b] → … → tail[b] is bucket b's list, where mask has bit b, and
	// lo[b] its least (at, seq) event. A peek reads lo and never moves a
	// bucket down, which would raise last above the shard's now.
	head, tail, lo [64]int32
	mask           uint64
	free           int32 // first free slot + 1; 0 when the free list is empty
	last           Time
	firm           int // pending events not marked cancel-on-idle
}

// bucketOf returns the bucket of an event at t when the latest pop was at
// last.
func bucketOf(t, last Time) int { return bits.Len64(uint64(t ^ last)) }

// empty reports whether no event is pending.
func (q *eventQueue) empty() bool { return q.mask == 0 }

// push links e into its bucket.
func (q *eventQueue) push(e event) {
	var i int32
	if q.free > 0 {
		i = q.free - 1
		q.free = q.slab[i].next
		q.slab[i] = e
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, e)
	}
	q.link(bucketOf(e.at, q.last), i)
	if !e.cancelable {
		q.firm++
	}
}

// link adds slot i to bucket b: at its tail, or for bucket 0, after the
// last event with a smaller seq.
func (q *eventQueue) link(b int, i int32) {
	if q.mask&(1<<b) == 0 {
		q.head[b], q.tail[b], q.lo[b] = i, i, i
		q.mask |= 1 << b
		return
	}
	e := &q.slab[i]
	if b == 0 && e.seq < q.slab[q.tail[0]].seq {
		j := q.head[0]
		if e.seq < q.slab[j].seq {
			e.next = j
			q.head[0], q.lo[0] = i, i
			return
		}
		for e.seq > q.slab[q.slab[j].next].seq {
			j = q.slab[j].next
		}
		e.next = q.slab[j].next
		q.slab[j].next = i
		return
	}
	q.slab[q.tail[b]].next = i
	q.tail[b] = i
	if eventBefore(e, &q.slab[q.lo[b]]) {
		q.lo[b] = i
	}
}

// peek returns the least pending event, nil when the queue is empty. The
// pointer is valid until the next push or pop.
func (q *eventQueue) peek() *event {
	if q.mask == 0 {
		return nil
	}
	return &q.slab[q.lo[bits.TrailingZeros64(q.mask)]]
}

// pop removes the least pending event into *e. The vacated slot is zeroed
// so the closure and name it held can be collected. (Returned by value,
// the event would reach the caller's variable through a temporary, copied
// wider than the registers it was stored from.)
func (q *eventQueue) pop(e *event) {
	b := bits.TrailingZeros64(q.mask)
	i := q.lo[b]
	if b == 0 {
		if i == q.tail[0] {
			q.mask &^= 1
		} else {
			q.head[0] = q.slab[i].next
			q.lo[0] = q.head[0]
		}
	} else {
		// i becomes last; the rest of its bucket moves down, and the
		// events at that same instant land on bucket 0 in seq order.
		q.last = q.slab[i].at
		q.mask &^= 1 << b
		for j, end := q.head[b], q.tail[b]; ; {
			next := q.slab[j].next
			if j != i {
				q.link(bucketOf(q.slab[j].at, q.last), j)
			}
			if j == end {
				break
			}
			j = next
		}
	}
	*e = q.slab[i]
	q.slab[i] = event{next: q.free}
	q.free = i + 1
	if !e.cancelable {
		q.firm--
	}
}

// clear drops every pending event, keeping the slab's capacity.
func (q *eventQueue) clear() {
	clear(q.slab)
	*q = eventQueue{slab: q.slab[:0], last: q.last}
}

// Kernel is a deterministic discrete-event simulator: one conservative
// engine over a coordinator shard and any number of worker shards. All
// simulated activity — timer callbacks and process execution — happens
// inside Run. Without workers, and with them outside parallel epochs, one
// action executes at a time, ordered by (time, schedule sequence).
type Kernel struct {
	// shards[0] is the coordinator, present from NewKernel on; Shard
	// appends the workers. Without workers every entity lives on the
	// coordinator and the run never leaves the sequential phase.
	shards []*shard
	plan   ShardPlan

	gseq      int64 // global schedule sequence (sequential phase, barriers)
	globalNow Time  // high-water clock, what Now reports
	// curNow is the sequential-phase universal clock: the timestamp of
	// the event currently executing on the coordinator. Inside a parallel
	// epoch each shard's own clock is authoritative instead.
	curNow Time

	spawned atomic.Int64 // procs ever spawned; Proc.id
	steps   int64
	rng     *rand.Rand
	tracer  func(t Time, what string)
	closed  bool
	// inPlace counts the sleep wakes Proc.Sleep ran without parking.
	inPlace int64

	wantParallel atomic.Bool
	parallel     bool // current mode, owned by the run loop
	inEpoch      atomic.Bool
	stop         atomic.Bool
	running      bool
	until        Time // the running call's RunUntil bound; < 0 means none

	// seed is the base for the kernel's derived random streams.
	seed int64
	// entRngs holds the lazily created per-entity random streams
	// (Entity -> *rand.Rand); a sync.Map because worker shards create
	// entries concurrently on first draw.
	entRngs sync.Map

	// The parallel epochs' state, owned by the run loop: the current
	// window's bound (read by the workers it releases), the persistent
	// workers by shard id (nil until the first epoch that needs one), the
	// workers released this epoch, the barrier's merge buffer and the
	// counters EpochStats reports.
	bound    Time
	workers  []*worker
	released []*worker
	merge    []xmsg
	stats    EpochStats
}

// NewKernel returns an empty kernel at time zero with a fixed-seed
// deterministic random source.
func NewKernel() *Kernel {
	return &Kernel{
		shards: []*shard{{procs: make(map[*Proc]struct{})}},
		seed:   1,
	}
}

// Now returns the current virtual time: the coordinator's view (the
// high-water clock). Entity code should read its own Sched.Now.
func (k *Kernel) Now() Time { return k.globalNow }

// Steps returns the number of events executed so far, a cheap progress and
// determinism fingerprint.
func (k *Kernel) Steps() int64 { return k.steps }

// WakesInPlace returns how many of the Steps were sleep wakes that ran
// without a switch (Proc.Sleep).
func (k *Kernel) WakesInPlace() int64 { return k.inPlace }

// Rand returns the kernel's deterministic random source, seeded on first use
// (a third of a two-rank bring-up, and only a lossy fabric draws from it).
// Simulated code must use this, not the global rand: runs stay reproducible.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// SetTracer installs fn to observe every executed event. A nil fn disables
// tracing. Incompatible with worker shards (events execute on several
// goroutines there).
func (k *Kernel) SetTracer(fn func(t Time, what string)) {
	if len(k.shards) > 1 && fn != nil {
		panic("simtime: SetTracer is incompatible with a sharded kernel")
	}
	k.tracer = fn
}

// At schedules fn to run at absolute time t under the global entity.
// Scheduling in the past is a programming error and panics, since it
// would silently reorder causality.
func (k *Kernel) At(t Time, name string, fn func()) {
	k.schedule(GlobalEntity, t, name, fn, nil, false)
}

// After schedules fn to run d from now. Negative durations are clamped to
// zero (run "immediately", after already-queued events at this instant).
func (k *Kernel) After(d Duration, name string, fn func()) {
	k.SchedFor(GlobalEntity).After(d, name, fn)
}

// wakeAt schedules the resumption of a parked proc d ≥ 0 from now. The
// event carries the proc pointer and the bare reason, so the hot path
// allocates neither a closure nor a concatenated name.
func (k *Kernel) wakeAt(d Duration, p *Proc, why string) {
	base := k.curNow
	if k.inEpoch.Load() && p.shard.executing.Load() {
		base = p.shard.now
	}
	k.schedule(p.ent, base.Add(d), why, nil, p, false)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; Run may be called again to continue. A mid-epoch Stop
// lets in-flight shard events finish, completes the barrier merge (so no
// commit is lost), then returns.
func (k *Kernel) Stop() { k.stop.Store(true) }

// Run executes events until the queue is empty or Stop is called. It
// returns the number of events executed by this call.
func (k *Kernel) Run() int64 {
	k.mustBeOpen("Run")
	return k.run(-1)
}

// RunUntil executes events with time ≤ t, then sets the clock to t. It
// returns the number of events executed by this call.
func (k *Kernel) RunUntil(t Time) int64 {
	k.mustBeOpen("Run")
	return k.run(t)
}

// Close ends the kernel's life. Every proc that has not finished — a
// daemon parked for good, a participant of a deadlock, one never started —
// is unwound: its park panics with a private sentinel, so its body's
// deferred functions run and its coroutine exits. Procs unwind in spawn
// order, which is reproducible for every proc spawned outside a parallel
// epoch (inside one, workers draw their spawn numbers concurrently).
// Pending events never run; clocks and counters stay readable; Spawn and
// Run panic. Close is idempotent and must not be called from inside Run.
// If a deferred function panics while its proc unwinds, Close still
// unwinds the rest and then panics with the first such *ProcPanic.
//
// Close also ends the goroutines of the kernel's persistent epoch workers.
//
// Whoever creates a kernel closes it, after taking what it wants from
// Stalled: an unclosed kernel leaks a goroutine per unfinished proc and per
// epoch worker, with everything they reference.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	if k.running {
		panic("simtime: Close during Run")
	}
	k.closed = true
	k.stopWorkers()
	var procs []*Proc
	for _, s := range k.shards {
		for p := range s.procs {
			procs = append(procs, p)
		}
		clear(s.procs)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	var failed any
	for _, p := range procs {
		if p.stop == nil { // spawned but never started
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil && failed == nil {
					failed = r
				}
			}()
			p.stop()
		}()
	}
	if failed != nil {
		panic(failed)
	}
}

// mustBeOpen panics if the kernel has been closed.
func (k *Kernel) mustBeOpen(what string) {
	if k.closed {
		panic("simtime: " + what + " on a closed kernel")
	}
}

// Idle reports whether no events are pending. If processes are still
// parked while the kernel is idle, the simulation has deadlocked; Stalled
// lists them.
func (k *Kernel) Idle() bool { return !k.anyWork() }

// Stalled returns the sorted names of the non-daemon processes that are
// parked, across every shard: once Idle reports true, the participants of
// a deadlock.
func (k *Kernel) Stalled() []string {
	var out []string
	for _, s := range k.shards {
		for p := range s.procs {
			if p.state == procParked && !p.daemon {
				out = append(out, p.name)
			}
		}
	}
	sort.Strings(out)
	return out
}
