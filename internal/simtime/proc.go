package simtime

import (
	"fmt"
	"iter"
	"runtime/debug"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process: a coroutine (iter.Pull) that runs in
// lockstep with the kernel. A Proc runs until it blocks on a kernel
// primitive (a Sleep with work due by its end that it cannot run itself, a
// Signal, a Counter, a Semaphore, ...), at which point control switches to the
// kernel's event loop — no channel, no pass through the Go scheduler — and
// another event executes. At most one Proc (or timer callback) is ever
// executing, so simulated code never needs synchronization of its own.
//
// Kernel primitives must only be called from inside the proc's own body;
// calling them from foreign goroutines corrupts the lockstep protocol and
// panics where detectable.
type Proc struct {
	k    *Kernel
	name string
	// next switches into the body until it next parks or returns; yield is
	// the body's way back out and reports false once stop has been called.
	// All three are nil until the spawn event starts the coroutine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// scan is the state of the proc's scans (SleepScan, Thread.ComputeScan),
	// made by its first scan that parks.
	scan *scanner
	// id is the proc's spawn sequence, the order Close unwinds in.
	id int64
	// shard caches the shard that owns ent, the owning entity.
	shard  *shard
	ent    Entity
	state  procState
	daemon bool
	// wakePending is bookkeeping for readyAt: a parked proc may be readied
	// at most once per park.
	wakePending bool
}

// ProcPanic is the value Kernel.Run panics with when a proc body panics:
// the original value together with the simulation context it was raised
// in. The original stays reachable through Value, and through
// errors.As/Is when it is an error.
type ProcPanic struct {
	Proc  string // name of the proc whose body panicked
	At    Time   // virtual time of the panic
	Value any    // the value passed to panic
	Stack []byte // the proc's own stack, which Run's caller no longer sees
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("simtime: proc %q panicked at %v: %v\n%s", e.Proc, e.At, e.Value, e.Stack)
}

// Unwrap returns the original panic value if it is an error.
func (e *ProcPanic) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// unwound is the private panic value park raises in a proc that Close is
// unwinding: it runs the body's deferred functions and is recovered by the
// spawn wrapper.
var unwound = new(int)

// MarkDaemon excludes the proc from Kernel.Stalled deadlock reports.
// Service loops that legitimately block forever (progress threads) mark
// themselves so an idle kernel with only daemons parked is not
// misreported as a deadlock.
func (p *Proc) MarkDaemon() { p.daemon = true }

// Spawn creates a simulated process named name running fn under the
// global entity, scheduled to start at the current time (after
// already-queued events at this instant). It may be called before Run or
// from inside running simulated code. Entity-owned processes are spawned
// through Sched.Spawn.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(GlobalEntity, name, fn)
}

func (k *Kernel) spawn(ent Entity, name string, fn func(p *Proc)) *Proc {
	k.mustBeOpen("Spawn")
	p := &Proc{k: k, name: name, state: procNew, ent: ent, shard: k.shardOf(ent), id: k.spawned.Add(1)}
	procs := p.shard.procs
	procs[p] = struct{}{}
	k.schedule(ent, k.SchedFor(ent).Now(), "spawn:"+name, func() {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				p.state = procDone
				delete(procs, p)
				if r := recover(); r != nil && r != unwound {
					panic(&ProcPanic{Proc: name, At: p.Now(), Value: r, Stack: debug.Stack()})
				}
			}()
			fn(p)
		})
		p.state = procRunning
		p.next()
	}, nil, kindSpawn)
	return p
}

// resume runs a woken proc until it parks again or finishes. It and the
// spawn event are the only places a proc body executes; a panic in the
// body resurfaces here, on the goroutine that called Kernel.Run. The wake
// of a proc parked in a scan's sleep goes to the scan first, which may
// take it without a switch.
func (p *Proc) resume() {
	if p.state != procParked {
		panic(fmt.Sprintf("simtime: wake of %q which is not parked", p.name))
	}
	p.wakePending = false
	if sc := p.scan; sc != nil && sc.parked && sc.next(p) {
		return // the kernel ran the scan on; p is parked in its next sleep
	}
	p.state = procRunning
	p.next()
}

// switchOut hands control back to the kernel's event loop and returns when
// the proc is next resumed. If the kernel is closed meanwhile it does not
// return: it unwinds the body, running its deferred functions as the proc.
func (p *Proc) switchOut() {
	p.state = procParked
	if !p.yield(struct{}{}) {
		p.state = procRunning
		panic(unwound)
	}
}

// park blocks the calling proc until a matching Ready. It transfers
// control back to the kernel event loop.
func (p *Proc) park() {
	if p.state != procRunning {
		panic(fmt.Sprintf("simtime: park of %q in state %d", p.name, p.state))
	}
	p.switchOut()
}

// ready schedules a parked proc to resume at the current time. Readying a
// proc that is not parked, or readying it twice, is a protocol violation
// and panics: it always indicates a lost-wakeup or double-wakeup bug in a
// synchronization primitive.
func (p *Proc) readyAt(d Duration, why string) {
	if p.k.closed {
		return // a deferred function of an unwinding proc: nothing runs again
	}
	if p.state == procDone {
		panic(fmt.Sprintf("simtime: ready of finished proc %q", p.name))
	}
	if p.wakePending {
		panic(fmt.Sprintf("simtime: double wake of proc %q (%s)", p.name, why))
	}
	p.wakePending = true
	p.k.wakeAt(d, p, why)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time as seen by this proc's shard.
func (p *Proc) Now() Time { return p.shard.now }

// Sched returns the scheduling context of the proc's entity.
func (p *Proc) Sched() Sched { return p.k.SchedFor(p.ent) }

// Sleep blocks the proc for d of virtual time. It yields only if work it
// cannot run itself is due by then: when nothing is due before its own
// wake, or only timer callbacks while no other proc's event is queued, it
// runs those callbacks, the clock advances in place and the proc runs on
// (Kernel.wakeInPlace). Negative durations are treated as zero, which
// still yields to other ready work at this instant.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	if p.state != procRunning {
		p.readyAt(d, "sleep") // panics at a pending wake, else park does
	} else if p.k.wakeInPlace(p, d) {
		return
	}
	p.park()
}
