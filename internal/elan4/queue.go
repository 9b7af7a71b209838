package elan4

import (
	"math/bits"

	"qsmpi/internal/simtime"
)

// QueuedMsg is one message deposited into a receive queue by a QDMA.
type QueuedMsg struct {
	SrcVPID int
	Data    []byte
}

// RecvQueue is a QDMA receive queue: a ring of fixed-size slots (QSLOTS in
// Quadrics terminology) that remote processes post small messages into.
// Each deposit increments the queue's host event word; the host consumes
// slots with Poll and must Free them to make room. The paper builds both
// its incoming-message path and its shared completion queue out of these.
type RecvQueue struct {
	ctx *Context
	id  int
	// slots is the ring, made at the first deposit. A slot refers to its
	// message only while it is occupied: Poll hands the message's backing
	// to the caller and clears the slot. A hardware slot is QDMAMaxPayload
	// bytes; the model backs a message at slotSize, the power of two (at
	// least 64) holding the largest deposit seen, so a ring of 64-byte
	// headers pins 64 bytes a backing, not 2 KB.
	slots    []QueuedMsg
	nslots   int
	slotSize int
	head     int // next slot to poll
	count    int // occupied slots
	// spare is the stack of backings consumers gave back with Release,
	// taken by the next deposits: a ring whose consumers release holds
	// about as many backings as its deepest occupancy, not one per slot.
	spare [][]byte

	// HostWord is incremented once per deposit; hosts poll or block on it.
	hostWord *simtime.Counter
	// notify are extra host words bumped on every deposit (e.g. a shared
	// "any activity" word the PML progress engine waits on).
	notify []*simtime.Counter

	irqArmed  bool
	irqSignal *simtime.Signal

	// event, if set, is triggered (count decremented after the NIC's
	// event-update cost) on every accepted deposit — the queue
	// descriptor's event field in Elan4 hardware. The collective trees
	// chain their combine step off it.
	event *Event

	deposits  int64
	rejects   int64
	highWater int // deepest occupancy ever seen
}

// CreateQueue allocates receive queue id with nslots slots, each able to
// take a message of the hardware slot size (QDMAMaxPayload). It allocates
// no backing: a deposit takes one that a consumer released, or makes one
// (see slots and spare). Creating an id twice panics: queue ids are
// protocol constants chosen by each transport layer.
func (c *Context) CreateQueue(id, nslots int) *RecvQueue {
	if _, dup := c.queues[id]; dup {
		panic("elan4: duplicate queue id")
	}
	q := &RecvQueue{
		ctx:      c,
		id:       id,
		nslots:   nslots,
		hostWord: simtime.NewCounter(),
	}
	c.queues[id] = q
	return q
}

// HostWord returns the counter incremented on every deposit.
func (q *RecvQueue) HostWord() *simtime.Counter { return q.hostWord }

// AddNotify registers an extra host word bumped on every deposit. Elan4
// events can target arbitrary host words; transports use this to share one
// "activity" word across many queues.
func (q *RecvQueue) AddNotify(c *simtime.Counter) { q.notify = append(q.notify, c) }

// SetEvent attaches an Elan event to the queue descriptor: every accepted
// deposit triggers it (one count decrement, charged the NIC event-update
// cost). This is how the NIC-resident collective trees learn of children's
// contributions without any host polling — the queue fills, the event
// counts down, and the chained combine fires.
func (q *RecvQueue) SetEvent(ev *Event) { q.event = ev }

// Slots returns the ring capacity.
func (q *RecvQueue) Slots() int { return q.nslots }

// Pending returns the number of occupied slots.
func (q *RecvQueue) Pending() int { return q.count }

// Deposits returns the total number of accepted deposits.
func (q *RecvQueue) Deposits() int64 { return q.deposits }

// Rejects returns how many deposits found the ring full (each causes a
// sender-side NACK and retry).
func (q *RecvQueue) Rejects() int64 { return q.rejects }

// HighWater returns the deepest slot occupancy the ring has reached — the
// CQ-depth metric for queues used as completion queues.
func (q *RecvQueue) HighWater() int { return q.highWater }

// Poll consumes the oldest deposited message, if any, and frees its slot.
// The message's backing is the caller's from here on: the ring keeps no
// reference to it, so its bytes stay as they are until the caller gives
// it back with Release. A message that is never released is left to the
// garbage collector.
func (q *RecvQueue) Poll() (QueuedMsg, bool) {
	if q.count == 0 {
		return QueuedMsg{}, false
	}
	m := q.slots[q.head]
	q.slots[q.head] = QueuedMsg{}
	q.head = (q.head + 1) % q.nslots
	q.count--
	return m, true
}

// Release gives the backing of m, a message Poll returned, back to the
// ring for a later deposit, which may overwrite it: the caller must be done
// with m.Data. Release a message once, and only to the queue it came from.
// Correctness never depends on it; a ring whose consumers release
// allocates nothing per message once it has seen its deepest occupancy.
func (q *RecvQueue) Release(m QueuedMsg) {
	if cap(m.Data) > 0 && len(q.spare) < q.nslots {
		q.spare = append(q.spare, m.Data[:0])
	}
}

// ArmInterrupt makes the next deposit raise a host interrupt firing sig.
// One-shot, like Event.ArmInterrupt.
func (q *RecvQueue) ArmInterrupt(sig *simtime.Signal) {
	q.irqArmed = true
	q.irqSignal = sig
}

// DisarmInterrupt cancels a pending arm.
func (q *RecvQueue) DisarmInterrupt() {
	q.irqArmed = false
	q.irqSignal = nil
}

// deposit is called by the NIC at delivery time. It returns false when the
// ring is full, which NACKs the QDMA back to the sender.
func (q *RecvQueue) deposit(src int, data []byte) bool {
	if q.count == q.nslots {
		q.rejects++
		return false
	}
	if q.slots == nil {
		q.slots = make([]QueuedMsg, q.nslots)
	}
	idx := (q.head + q.count) % q.nslots
	if len(data) > q.slotSize {
		q.slotSize = max(64, 1<<bits.Len(uint(len(data)-1)))
	}
	var buf []byte
	if n := len(q.spare); n > 0 {
		buf = q.spare[n-1]
		q.spare[n-1] = nil
		q.spare = q.spare[:n-1]
	}
	if cap(buf) < len(data) {
		buf = make([]byte, q.slotSize) // a spare too small is dropped, never overrun
	}
	cp := buf[:len(data)]
	copy(cp, data)
	q.slots[idx] = QueuedMsg{SrcVPID: src, Data: cp}
	q.count++
	if q.count > q.highWater {
		q.highWater = q.count
	}
	q.deposits++
	q.hostWord.Add(1)
	for _, c := range q.notify {
		c.Add(1)
	}
	if q.irqArmed {
		q.irqArmed = false
		sig := q.irqSignal
		q.irqSignal = nil
		q.ctx.nic.raiseInterrupt(sig)
	}
	if q.event != nil {
		q.event.trigger()
	}
	return true
}
