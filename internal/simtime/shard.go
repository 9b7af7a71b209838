package simtime

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
)

// Entity identifies an independently schedulable simulation entity: a
// node with its host, NICs and per-rank stacks, or the coordinator-owned
// global services (entity 0: the RTE registry, the fabric link state, the
// watchdog). Every event and proc belongs to one entity, and every entity
// to one shard; an event may only touch state owned by its entity's shard
// unless it runs on the coordinator.
type Entity int32

// GlobalEntity is the coordinator-owned entity. Its events always execute
// with exclusive access to the whole simulation (between worker epochs),
// so global services schedule under it.
const GlobalEntity Entity = 0

// ShardPlan partitions the entities over worker shards.
type ShardPlan struct {
	// Workers is the number of worker shards. Values ≤ 1 add none: every
	// entity stays on the coordinator.
	Workers int
	// Owner maps an entity to its worker shard in [1, Workers], at every
	// scheduling decision, on any shard. GlobalEntity is always owned by
	// the coordinator (shard 0) and is never passed to Owner.
	Owner func(e Entity) int
	// Lookahead is the minimum virtual-time latency of any cross-shard
	// interaction (the per-hop wire latency of the fastest fabric). It
	// bounds how far an epoch may run past the global minimum next-event
	// time: LBTS = min-next + Lookahead.
	Lookahead Duration
}

// Sched is an entity-bound scheduling context: the handle through which
// simulated components create events, read the clock and draw randomness,
// at any shard count.
type Sched struct {
	k   *Kernel
	ent Entity
}

// SchedFor returns the scheduling context of entity e.
func (k *Kernel) SchedFor(e Entity) Sched { return Sched{k: k, ent: e} }

// Now returns the entity's current virtual time: inside a parallel epoch
// the owning shard's clock, in coordinator phases the universal clock of
// the event being executed.
func (s Sched) Now() Time {
	if s.k.inEpoch.Load() {
		return s.k.shardOf(s.ent).now
	}
	return s.k.curNow
}

// Rand returns the entity's deterministic random stream. Streams are
// derived from the kernel seed and the entity id only, so an entity draws
// the same sequence at every shard count — the property the sharded
// determinism gate relies on.
func (s Sched) Rand() *rand.Rand { return s.k.RandFor(s.ent) }

// At schedules fn at absolute time t on this entity.
func (s Sched) At(t Time, name string, fn func()) {
	s.k.schedule(s.ent, t, name, fn, nil, kindCall)
}

// After schedules fn d from the entity's now.
func (s Sched) After(d Duration, name string, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.Now().Add(d), name, fn)
}

// AfterCancelable schedules fn d from now, marked cancel-on-idle: when
// only such events remain pending anywhere, the kernel drops them and
// drains instead of executing them. The sampler's and the watchdog's
// ticks use it, so they never keep an otherwise-finished run alive.
func (s Sched) AfterCancelable(d Duration, name string, fn func()) {
	if d < 0 {
		d = 0
	}
	s.k.schedule(s.ent, s.Now().Add(d), name, fn, nil, kindCancelable)
}

// Commit runs fn with exclusive access to coordinator-owned shared state.
// On the coordinator it runs inline, preserving exact sequential
// semantics. From a worker epoch it is deferred to the next barrier, where
// the coordinator replays all commits in deterministic (time, source
// entity, source sequence) order — the cross-shard mailbox through which
// the fabric's shared link state is reached. name labels the commit at the
// call site; the engine does not keep it.
func (s Sched) Commit(name string, fn func()) {
	if !s.k.inEpoch.Load() {
		fn()
		return
	}
	src := s.k.shardOf(s.ent)
	if !src.executing.Load() {
		// Not called from the goroutine draining this shard: coordinator
		// context between epochs — exclusive access holds.
		fn()
		return
	}
	src.oseq++
	src.outbox = append(src.outbox, xmsg{at: src.now, srcEnt: s.ent, srcSeq: src.oseq, fn: fn})
}

// Spawn creates a simulated process owned by this entity.
func (s Sched) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.k.spawn(s.ent, name, fn)
}

// xmsg is one cross-shard mailbox entry: a commit to replay on the
// coordinator. The (at, srcEnt, srcSeq) triple is the shard-independent
// merge key.
type xmsg struct {
	at     Time
	srcEnt Entity
	srcSeq int64
	fn     func()
}

// shard is one partition of the simulation: its own event queue, clock,
// proc set and sequence counters.
type shard struct {
	id    int
	now   Time
	queue eventQueue
	procs map[*Proc]struct{}
	steps int64
	// scanned counts the shard's proc wakes that a scan took without a
	// switch (scanner.next).
	scanned int64
	lseq    int64 // events scheduled by this shard during the current epoch
	oseq    int64 // outbox entries emitted during the current epoch
	outbox  []xmsg

	// executing is true while a goroutine drains the shard's events inside
	// an epoch; it gates the inline-commit fast path and the
	// cross-shard wake check.
	executing atomic.Bool

	// stopPhase asks the worker loop to stop after the current event: a
	// proc awaits the sequential phase.
	stopPhase bool
	awaiting  *Proc // proc parked in AwaitSequential, woken at phase switch
	// panicked holds a proc panic raised inside the shard's drain until the
	// coordinator, once every drain of the epoch has returned, re-raises it
	// on the goroutine that called Run.
	panicked *ProcPanic
}

// Shard partitions the kernel's entities over plan.Workers worker shards.
// It must be called on a fresh kernel, before anything is scheduled or
// spawned; plans with ≤ 1 worker add none.
func (k *Kernel) Shard(plan ShardPlan) {
	if plan.Workers <= 1 {
		return
	}
	if c := k.shards[0]; len(k.shards) > 1 || !c.queue.empty() || len(c.procs) != 0 || k.steps != 0 {
		panic("simtime: Shard must be called on a fresh kernel")
	}
	if k.tracer != nil {
		panic("simtime: Shard is incompatible with a kernel tracer")
	}
	if plan.Owner == nil {
		panic("simtime: ShardPlan.Owner is required")
	}
	if plan.Lookahead <= 0 {
		panic("simtime: ShardPlan.Lookahead must be positive")
	}
	k.plan = plan
	for i := 1; i <= plan.Workers; i++ {
		k.shards = append(k.shards, &shard{id: i, procs: make(map[*Proc]struct{})})
	}
}

// Sharded returns the number of worker shards: 0 when every entity lives
// on the coordinator.
func (k *Kernel) Sharded() int { return len(k.shards) - 1 }

// EnableParallel asks the engine to start running worker epochs
// concurrently. It takes effect at the next scheduling boundary; a kernel
// without workers has no epochs to run and ignores it. Callers must
// guarantee that, from this point until a proc awaits the sequential
// phase, every event touches only its own shard's state (or runs under the
// global entity).
func (k *Kernel) EnableParallel() {
	if len(k.shards) > 1 {
		k.wantParallel.Store(true)
	}
}

// InParallel reports whether worker epochs are currently enabled; shared
// services use it to reject calls that are only legal in the sequential
// phase.
func (k *Kernel) InParallel() bool { return k.parallel || k.wantParallel.Load() }

// AwaitSequential parks p until the kernel is executing sequentially
// (coordinator-only). It returns immediately when worker epochs are off;
// otherwise it requests the switch, stops the calling shard's epoch at the
// current instant so no local time passes, and resumes at the same virtual
// time once the coordinator has taken over. Finalization paths call it
// before touching global services.
func (k *Kernel) AwaitSequential(p *Proc) {
	if !k.parallel {
		return
	}
	s := p.shard
	if !s.executing.Load() {
		return // coordinator context: already exclusive
	}
	k.wantParallel.Store(false)
	s.stopPhase = true
	if s.awaiting != nil {
		panic("simtime: two procs awaiting sequential phase on one shard in one epoch")
	}
	s.awaiting = p
	p.switchOut()
}

// RandFor returns the deterministic random stream of entity e, created on
// first use from the kernel seed and the entity id only. Creation races
// resolve to a single winner via LoadOrStore; since the seed depends only
// on (kernel seed, entity), the losing racer's stream was identical anyway.
func (k *Kernel) RandFor(e Entity) *rand.Rand {
	if v, ok := k.entRngs.Load(e); ok {
		return v.(*rand.Rand)
	}
	r := rand.New(rand.NewSource(mix64(k.seed, int64(e))))
	v, _ := k.entRngs.LoadOrStore(e, r)
	return v.(*rand.Rand)
}

// mix64 is splitmix64 over the pair (seed, tweak): a cheap, well-mixed
// seed derivation so entity streams are independent.
func mix64(seed, tweak int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(tweak+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shardOf resolves an entity's shard through the plan's Owner, which is
// cheaper than a memo. Without workers every entity lives on the coordinator.
func (k *Kernel) shardOf(e Entity) *shard {
	if e == GlobalEntity || len(k.shards) == 1 {
		return k.shards[0]
	}
	w := k.plan.Owner(e)
	if w < 1 || w > k.plan.Workers {
		panic(fmt.Sprintf("simtime: ShardPlan.Owner(%d) = %d outside [1,%d]", e, w, k.plan.Workers))
	}
	return k.shards[w]
}

// schedule is the one scheduling path, shared by Sched.At, proc wakes and
// the Kernel wrappers. Outside worker epochs the event goes straight into
// the owning shard's queue under the global sequence; inside an epoch a
// worker schedules onto its own shard with strided sequence numbers, and
// what must reach shared state travels as a commit.
func (k *Kernel) schedule(ent Entity, t Time, name string, fn func(), p *Proc, kind eventKind) {
	dst := k.shardOf(ent)
	epoch := k.inEpoch.Load()
	// Cross-shard scheduling from inside a worker epoch is an ownership
	// violation: the destination queue belongs to a goroutine that may be
	// draining it right now. Protocol layers never take this path — they
	// commit, or schedule onto entities they own.
	if epoch && !dst.executing.Load() {
		if p != nil {
			panic(fmt.Sprintf("simtime: cross-shard wake of proc %q from a worker epoch — co-locate the entities or communicate through the fabric", p.name))
		}
		panic(fmt.Sprintf("simtime: cross-shard schedule of %q onto entity %d from a worker epoch — use Sched.Commit or an owned entity", name, ent))
	}
	if t < dst.now {
		panic(fmt.Sprintf("simtime: scheduling %q at %v before shard %d now %v", name, t, dst.id, dst.now))
	}
	// Coordinator context has exclusive access to every queue and takes the
	// global sequence; a worker schedules onto the shard it drains with
	// strided sequence numbers.
	var seq int64
	if !epoch {
		k.gseq++
		seq = k.gseq
	} else {
		dst.lseq++
		seq = k.gseq + dst.lseq*int64(len(k.shards)) + int64(dst.id)
	}
	dst.queue.push(event{at: t, seq: seq, name: name, fn: fn, proc: p, kind: kind})
}

// run is the engine's main loop: coordinator-only sequential execution,
// alternating with conservative parallel epochs once workers exist and
// EnableParallel has been called.
func (k *Kernel) run() int64 {
	if k.running {
		panic("simtime: Kernel.Run is not reentrant")
	}
	k.running = true
	defer func() { k.running = false }()

	var n int64
	aside := k.aside // events run outside this loop count as the events they are
	for {
		if k.parallel != k.wantParallel.Load() {
			k.switchPhase()
		}
		if k.parallel {
			ran, done := k.epoch()
			n += ran
			if done {
				break
			}
			continue
		}
		s := k.minShard()
		if s == nil {
			break
		}
		n++
		k.exec(s)
	}
	if t := k.maxNow(); t > k.globalNow {
		k.globalNow = t
	}
	k.curNow = k.globalNow // what Sched.Now reads between Runs
	return n + k.aside - aside
}

// minShard returns the shard holding the globally minimal event of the
// sequential phase — (time, global schedule sequence) order — or nil when
// nothing is left to run: no event, or only cancel-on-idle ones, which it
// drops.
func (k *Kernel) minShard() *shard {
	var best *shard
	var top *event
	for _, s := range k.shards {
		if e := s.queue.peek(); e != nil && (top == nil || e.before(top.at, top.seq)) {
			best, top = s, e
		}
	}
	if best == nil {
		return nil
	}
	if top.kind == kindCancelable && k.onlyCancelable() {
		k.dropCancelable()
		return nil
	}
	return best
}

// before reports whether e orders before (t, seq): by time, then seq.
func (e *event) before(t Time, seq int64) bool {
	return e.at < t || e.at == t && e.seq < seq
}

// onlyCancelable reports whether every pending event anywhere is marked
// cancel-on-idle — the drain condition.
func (k *Kernel) onlyCancelable() bool {
	for _, s := range k.shards {
		if s.queue.firm() != 0 {
			return false
		}
	}
	return true
}

// dropCancelable discards all pending cancel-on-idle events.
func (k *Kernel) dropCancelable() {
	for _, s := range k.shards {
		s.queue.clear()
	}
}

// exec pops shard s's next event and runs it on the coordinator thread
// with s's clock.
func (k *Kernel) exec(s *shard) {
	var e event
	s.queue.pop(&e)
	if e.at < s.now {
		panic("simtime: event time went backwards")
	}
	s.now = e.at
	k.curNow = e.at
	if e.at > k.globalNow {
		k.globalNow = e.at
	}
	if e.kind != kindAwaitSeq {
		// Phase-switch wakes are engine plumbing with no sequential
		// counterpart; counting them would make Steps() shard-dependent.
		s.steps++
		k.steps++
		k.stats.Sequential++
	}
	if k.tracer != nil {
		what := e.name
		if e.proc != nil {
			what = "wake:" + e.proc.name + ":" + what
		}
		k.tracer(e.at, what)
	}
	e.run()
	if r := k.raw; r != nil { // a callback panicked on a sleeper's drain
		k.raw = nil
		panic(r)
	}
}

// wakeInPlace is the one rule for a sleep of p for d (Proc.Sleep, runScan,
// scanner.next): it reports whether p takes its wake with no switch.
// Without worker shards, inside Run and with no wake of p pending, it
// reserves the wake's seq where a push would take it, so the wake is at
// (now+d, seq). While the least queued event is before the wake and is a
// plain callback, and no proc event was queued before the first one ran,
// p runs it (runBefore). Once nothing queued is before the wake, p takes
// it as exec would: clocks, step, trace label. At anything else the wake
// is pushed under its reserved seq and p must park.
func (k *Kernel) wakeInPlace(p *Proc, d Duration) bool {
	if len(k.shards) > 1 || !k.running || p.wakePending {
		p.readyAt(d, "sleep")
		return false
	}
	s := k.shards[0]
	t := k.curNow.Add(d)
	k.gseq++
	seq := k.gseq
	if top := s.queue.peek(); top == nil || !top.before(t, seq) {
		k.inPlace++
	} else if s.queue.procs() == 0 && k.runBefore(s, p, t, seq) {
		k.drained++
	} else {
		p.wakePending = true
		s.queue.push(event{at: t, seq: seq, name: "sleep", proc: p, kind: kindWake})
		return false
	}
	s.now, k.curNow = t, t
	if t > k.globalNow {
		k.globalNow = t
	}
	s.steps++
	k.steps++
	k.stats.Sequential++
	k.aside++
	if k.tracer != nil {
		k.tracer(t, "wake:"+p.name+":sleep")
	}
	return true
}

// runBefore runs the callbacks queued on s before (t, seq), p's wake,
// through exec as the run loop would, with p marked parked and its wake
// pending, and reports whether it got to the wake: false at a proc event,
// a cancel-on-idle one or a callback's panic, which it leaves raw for exec.
func (k *Kernel) runBefore(s *shard, p *Proc, t Time, seq int64) (took bool) {
	state := p.state
	p.state, p.wakePending = procParked, true
	defer func() {
		p.state, p.wakePending = state, false
		if r := recover(); r != nil {
			k.raw = r
		}
	}()
	for top := s.queue.peek(); top != nil && top.before(t, seq); top = s.queue.peek() {
		if top.kind != kindCall {
			return false
		}
		k.aside++
		k.exec(s)
	}
	return true
}

// switchPhase flips between sequential and parallel execution at a safe
// boundary, waking any procs parked in AwaitSequential at their own park
// instants.
func (k *Kernel) switchPhase() {
	k.parallel = k.wantParallel.Load()
	if k.parallel {
		return
	}
	for _, s := range k.shards {
		if p := s.awaiting; p != nil {
			s.awaiting = nil
			k.gseq++
			s.queue.push(event{at: s.now, seq: k.gseq, name: "simtime:await-seq", proc: p, kind: kindAwaitSeq})
			p.wakePending = true
			p.state = procParked // already parked; wake path re-checks
		}
	}
}

// epoch runs one conservative parallel window: coordinator events first
// (exclusive), then every worker shard concurrently up to the LBTS bound —
// the first non-empty one on the coordinator's goroutine, each other one
// on its persistent worker — then the barrier merge. It returns the events
// executed and whether the simulation has drained.
func (k *Kernel) epoch() (int64, bool) {
	var n int64
	// Coordinator-first: run global events due before any worker work.
	c := k.shards[0]
	for {
		wnext, any := k.workerNext()
		top := c.queue.peek()
		if top == nil {
			if !any {
				if k.onlyCancelable() {
					k.dropCancelable()
				}
				if c.queue.empty() && !k.anyWork() {
					return n, true
				}
			}
			break
		}
		if any && top.at > wnext {
			break
		}
		if top.kind == kindCancelable && k.onlyCancelable() {
			k.dropCancelable()
			return n, true
		}
		n++
		k.exec(c)
		if k.parallel != k.wantParallel.Load() {
			return n, false
		}
	}
	wnext, any := k.workerNext()
	if !any {
		return n, !k.anyWork()
	}
	bound := wnext.Add(k.plan.Lookahead)
	if top := c.queue.peek(); top != nil && top.at < bound {
		bound = top.at
	}
	// Drain worker queues concurrently inside [*, bound): the coordinator
	// takes the first non-empty worker shard itself, a persistent worker
	// each other one.
	k.bound = bound
	k.inEpoch.Store(true)
	var first *shard
	released := k.released[:0]
	for _, s := range k.shards[1:] {
		if s.queue.empty() {
			continue
		}
		s.lseq = 0
		s.oseq = 0
		if first == nil {
			first = s
			continue
		}
		w := k.workerFor(s)
		w.start.release()
		released = append(released, w)
	}
	k.released = released
	ran := k.drainBeside(first, bound, released)
	for _, s := range k.shards[1:] {
		if pp := s.panicked; pp != nil {
			s.panicked = nil
			panic(pp)
		}
	}
	n += ran
	k.steps += ran
	if t := k.maxNow(); t > k.globalNow {
		k.globalNow = t
	}
	merged := k.mergeOutboxes()
	k.stats.Epochs++
	k.stats.Events += ran
	k.stats.Commits += int64(merged)
	// Reserve the strided sequence range the workers consumed.
	var maxL int64
	for _, s := range k.shards[1:] {
		if s.lseq > maxL {
			maxL = s.lseq
		}
	}
	k.gseq += (maxL + 1) * int64(len(k.shards))
	return n, false
}

// drain executes shard s's events before bound on the calling goroutine
// (the coordinator's or s's worker's) and returns how many ran. A proc
// panic is parked in s.panicked for the coordinator; any other panic is a
// simulator bug and keeps unwinding where it happened: on a worker it
// crashes the process, on the coordinator it leaves Run once the epoch's
// workers are back.
func (k *Kernel) drain(s *shard, bound Time) (n int64) {
	s.executing.Store(true)
	defer func() {
		s.stopPhase = false
		s.executing.Store(false)
		if r := recover(); r != nil {
			pp, ok := r.(*ProcPanic)
			if !ok {
				panic(r)
			}
			s.panicked = pp
		}
	}()
	for !s.stopPhase {
		if top := s.queue.peek(); top == nil || top.at >= bound {
			break
		}
		var e event
		s.queue.pop(&e)
		if e.at < s.now {
			panic("simtime: event time went backwards")
		}
		s.now = e.at
		s.steps++
		n++
		e.run()
	}
	return n
}

// workerNext returns the earliest pending worker event time.
func (k *Kernel) workerNext() (Time, bool) {
	var t Time
	any := false
	for _, s := range k.shards[1:] {
		if e := s.queue.peek(); e != nil && (!any || e.at < t) {
			t = e.at
			any = true
		}
	}
	return t, any
}

// anyWork reports whether any shard has pending events.
func (k *Kernel) anyWork() bool {
	for _, s := range k.shards {
		if !s.queue.empty() {
			return true
		}
	}
	return false
}

// mergeOutboxes replays every commit made during the epoch against
// coordinator-owned state, in deterministic (time, source entity, source
// sequence) order. The gathering slice is the kernel's, reused from epoch
// to epoch.
func (k *Kernel) mergeOutboxes() int {
	all := k.merge[:0]
	for _, s := range k.shards[1:] {
		all = append(all, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	if len(all) == 0 {
		return 0
	}
	slices.SortFunc(all, xmsgOrder)
	for i := range all {
		// Replay at the commit's own timestamp so Sched.Now and wake
		// scheduling inside the closure see the source's send time, not
		// whatever coordinator event last ran.
		k.curNow = all[i].at
		all[i].fn()
	}
	clear(all) // the replayed closures are garbage now
	k.merge = all[:0]
	return len(all)
}

// xmsgOrder is the merge key's order: time, then source entity, then source
// sequence. No two commits share all three, so any sort replays alike.
func xmsgOrder(a, b xmsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.srcEnt, b.srcEnt); c != 0 {
		return c
	}
	return cmp.Compare(a.srcSeq, b.srcSeq)
}

// maxNow returns the latest shard clock.
func (k *Kernel) maxNow() Time {
	var t Time
	for _, s := range k.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}
