package simtime

import (
	"runtime"
	"sync/atomic"
)

// spinRounds bounds how long either side of an epoch handoff yields its CPU
// before it parks: about 2 000 runtime.Gosched calls, which covers the
// barrier merge and the coordinator's own events between two epochs.
const spinRounds = 2000

// baton is one direction of an epoch handoff between two goroutines. The
// waiter polls a release count, yielding for a bounded number of rounds,
// then parks on a channel; the releaser bumps the count and sends on the
// channel only when the waiter has parked. A waiter that keeps polling is
// handed the next epoch without an OS thread being woken.
//
// word holds the count in its upper bits and, in bit 0, whether the waiter
// is parked for the release that comes next. Parking is a compare-and-swap
// from the count the waiter has seen, and the releaser clears the bit in
// the swap that bumps the count, so a wake-up always belongs to the round
// it was sent in: a releaser still finishing one round can never wake the
// waiter's next one.
type baton struct {
	word atomic.Uint64
	wake chan struct{}
}

// release lets the waiter past its current round.
func (b *baton) release() {
	for {
		old := b.word.Load()
		if b.word.CompareAndSwap(old, (old+2)&^1) {
			if old&1 != 0 {
				b.wake <- struct{}{}
			}
			return
		}
	}
}

// await returns once the release after the seen-th has happened, yielding
// for up to spin rounds first. It reports whether the release came while it
// was still yielding.
func (b *baton) await(seen uint64, spin int) (spun bool) {
	for range spin {
		if b.word.Load()>>1 != seen {
			return true
		}
		runtime.Gosched()
	}
	if b.word.CompareAndSwap(seen<<1, seen<<1|1) {
		<-b.wake
	}
	return false
}

// worker drains one worker shard in every epoch that gives it work, on one
// goroutine that lives from the first such epoch until Kernel.Close. The
// coordinator writes the epoch's bound before it releases start; the
// worker writes its shard and ran before it releases done, so each side
// reads what the other wrote only after the baton ordered it.
type worker struct {
	s *shard
	// spin is how many rounds both sides of this worker's handoffs yield
	// before parking: spinRounds when every worker shard can hold a CPU of
	// its own (GOMAXPROCS ≥ Workers), else 0. Fixed when the worker starts.
	spin        int
	start, done baton
	handoffs    uint64 // epochs handed over and returned, coordinator-owned
	ran         int64  // events the last drain ran
	spun        bool   // the last epoch was picked up while yielding
	quit        bool   // Close's release: return instead of draining
}

// workerFor returns shard s's persistent worker, starting it on first use.
func (k *Kernel) workerFor(s *shard) *worker {
	if k.workers == nil {
		k.workers = make([]*worker, len(k.shards))
	}
	if w := k.workers[s.id]; w != nil {
		return w
	}
	w := &worker{s: s}
	w.start.wake = make(chan struct{}, 1)
	w.done.wake = make(chan struct{}, 1)
	if runtime.GOMAXPROCS(0) >= k.plan.Workers {
		w.spin = spinRounds
	}
	k.workers[s.id] = w
	go k.work(w)
	return w
}

// work is a worker's goroutine: wait for an epoch, drain the shard up to
// the kernel's bound, hand the epoch back.
func (k *Kernel) work(w *worker) {
	for seen := uint64(0); ; seen++ {
		w.spun = w.start.await(seen, w.spin)
		if w.quit {
			w.done.release()
			return
		}
		w.ran = k.drain(w.s, k.bound)
		w.done.release()
	}
}

// drainBeside drains shard s on the calling goroutine while the released
// workers drain theirs, and returns once every one of them has handed its
// epoch back — also when s's drain panics, so the panic never leaves the
// epoch with a worker still running. It returns the events all of them ran.
func (k *Kernel) drainBeside(s *shard, bound Time, released []*worker) (n int64) {
	defer func() {
		for _, w := range released {
			w.done.await(w.handoffs, w.spin)
			w.handoffs++
			n += w.ran
			if w.spun {
				k.stats.Spun++
			} else {
				k.stats.Parked++
			}
		}
		k.inEpoch.Store(false)
	}()
	return k.drain(s, bound)
}

// quitWorkers ends every worker goroutine and waits until each has
// acknowledged; Close calls it.
func (k *Kernel) quitWorkers() {
	for _, w := range k.workers {
		if w != nil {
			w.quit = true
			w.start.release()
			w.done.await(w.handoffs, 0)
		}
	}
	k.workers = nil
}

// EpochStats counts what a kernel's parallel epochs did over its life. A
// handoff is one epoch given to a persistent worker: Spun if the worker
// was still yielding when it came, Parked if it had taken the park path.
type EpochStats struct {
	Epochs     int64 // windows in which worker shards drained concurrently
	Events     int64 // events run inside those windows, on every worker shard
	Sequential int64 // events run one at a time on the coordinator, in-place wakes included
	Commits    int64 // commits replayed at epoch barriers
	Spun       int64
	Parked     int64
}

// EpochStats returns the kernel's epoch counters. Events + Sequential is
// Steps.
func (k *Kernel) EpochStats() EpochStats { return k.stats }
