package elan4

import (
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Event is an Elan event: a NIC-resident word with a count that DMA
// completions decrement. When the count reaches exactly zero the event
// fires, which can (in any combination):
//
//   - increment a host-visible event word (a simtime.Counter the host
//     polls or waits on),
//   - raise a host interrupt if one is armed,
//   - issue a chained command on the NIC (the chained-event mechanism:
//     e.g. a QDMA automatically sent when an RDMA completes, with no host
//     involvement).
//
// Decrements below zero do not fire again — this is the hardware behaviour
// behind the race in Fig. 5 of the paper: a host that "resets" the count
// back to 1 non-atomically can lose completions that arrive in between.
// See Context.ResetEventCountRacy and the regression test.
type Event struct {
	nic   *NIC
	ctx   *Context
	count int64

	hostWord  *simtime.Counter
	notify    []*simtime.Counter
	irqArmed  bool
	irqSignal *simtime.Signal
	chain     func() // chained command, issued on the NIC at fire time

	// triggerFn is the cached decrement callback; triggering is the
	// busiest event-update path, and reusing one bound closure per Event
	// keeps it allocation-free.
	triggerFn func()

	fires int64
}

// NewEvent allocates an event whose count must be decremented `count`
// times before it fires.
func (c *Context) NewEvent(count int) *Event {
	return &Event{nic: c.nic, ctx: c, count: int64(count)}
}

// Count returns the current count (host PIO read; cost charged by callers
// that model it).
func (e *Event) Count() int64 { return e.count }

// Fires returns how many times the event has fired.
func (e *Event) Fires() int64 { return e.fires }

// SetHostWord attaches a host-visible event word: every fire increments
// the counter, which host threads can poll or wait on.
func (e *Event) SetHostWord(w *simtime.Counter) { e.hostWord = w }

// HostWord returns the attached host event word, if any.
func (e *Event) HostWord() *simtime.Counter { return e.hostWord }

// AddNotify registers an extra host word bumped on every fire.
func (e *Event) AddNotify(c *simtime.Counter) { e.notify = append(e.notify, c) }

// Chain attaches a command to issue on the NIC when the event fires. This
// is the Elan4 chained-event mechanism: fn runs in NIC context (no host
// CPU), typically enqueueing another DMA. Chaining replaces an existing
// chain.
func (e *Event) Chain(fn func()) { e.chain = fn }

// ArmInterrupt arranges for the next fire to raise a host interrupt that
// fires sig after the configured interrupt latency. The arming is
// one-shot, matching the hardware's wait-event trap.
func (e *Event) ArmInterrupt(sig *simtime.Signal) {
	e.irqArmed = true
	e.irqSignal = sig
}

// DisarmInterrupt cancels a pending arm (e.g. when the host noticed
// completion by polling before blocking).
func (e *Event) DisarmInterrupt() {
	e.irqArmed = false
	e.irqSignal = nil
}

// setCount overwrites the count. This is the host's non-atomic reset: if a
// completion decremented the count below zero in the window between the
// host observing the fire and the reset, that completion is silently
// forgotten. The paper's shared-completion-queue design exists to avoid
// relying on this operation.
func (e *Event) setCount(n int64) { e.count = n }

// Rearm resets the count from inside a chain closure, the one place a
// reset is sound: the chain runs on the NIC at the instant the count
// reached exactly zero, atomically with respect to further decrements, so
// no completion can be lost in the window that makes the host-side reset
// (ResetEventCountRacy) unsound. NIC-resident state machines — the
// collective combine trees — use it to make an event reusable across
// operations. The only other sound caller is the owner of an event that
// no outstanding operation targets (a recycled descriptor's): there is no
// decrement to lose. Anywhere else it recreates the Fig. 5 race and must
// not be done.
func (e *Event) Rearm(count int64) { e.count = count }

// trigger is called by the NIC when an operation targeting this event
// completes. It charges the NIC's event-update cost, then fires if the
// count reaches exactly zero.
func (e *Event) trigger() {
	if e.triggerFn == nil {
		e.triggerFn = func() {
			e.count--
			if e.count == 0 {
				e.fire()
			}
		}
	}
	e.nic.sc.After(e.nic.cfg.EventUpdate, "elan4:event", e.triggerFn)
}

func (e *Event) fire() {
	e.fires++
	if e.hostWord != nil {
		e.hostWord.Add(1)
	}
	for _, c := range e.notify {
		c.Add(1)
	}
	if e.irqArmed {
		e.irqArmed = false
		sig := e.irqSignal
		e.irqSignal = nil
		e.nic.raiseInterrupt(sig)
	}
	if e.chain != nil {
		e.nic.stats.ChainFires++
		if e.nic.tracer != nil && e.ctx != nil {
			e.nic.tracer.Record(trace.Event{
				At: e.nic.sc.Now(), Rank: e.ctx.vpid, Layer: trace.LayerElan4,
				Kind: trace.ChainFired,
			})
		}
		fn := e.chain
		fn()
	}
}
