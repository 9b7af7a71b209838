package simtime

import (
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

// eventHeap is a binary min-heap ordered by (at, seq), stored by value.
// Storing event records inline in the slice — rather than boxing *event
// through container/heap's `any` interface — means the slice's backing
// array is its own free-list: a pop leaves a slot that the next push
// reuses, so steady-state scheduling allocates nothing per event.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return eventBefore(&h[i], &h[j]) }

// push inserts e, sifting it up to its ordered position.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the closure and name it held can be collected.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
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
	owners  sync.Map // Entity -> *shard, memoized Owner calls
	wg      sync.WaitGroup
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
// Whoever creates a kernel closes it, after taking what it wants from
// Stalled: an unclosed kernel leaks a goroutine per unfinished proc, with
// everything those procs reference.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	if k.running {
		panic("simtime: Close during Run")
	}
	k.closed = true
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

// onlyCancelable reports whether every event in the heap is cancel-on-idle.
func (h eventHeap) onlyCancelable() bool {
	for i := range h {
		if !h[i].cancelable {
			return false
		}
	}
	return true
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
