package simtime

// A scan is a loop of the form "pay d, then look at one thing": a progress
// sweep that polls one queue or descriptor per check, a bring-up that pays
// one out-of-band latency per peer it looks up. When the proc parks in one
// of the loop's sleeps, its wake goes to the scan, and the kernel runs the
// loop on by itself for as long as the proc would only have paid the next
// d: it evaluates the check at the wake, and while the check does not stop
// the scan, more checks remain and no other thread waits for the host's
// CPU, it ends the compute and starts the next one, and sleeps by the rule
// the proc's own sleep follows (Kernel.wakeInPlace). Every event, instant,
// sequence number and traced label is the loop's; only the switches into
// the proc are gone.

// scanner is one proc's scan state, made by its first scan that parks. It
// holds the loop while the proc is parked in one of its sleeps, and what
// the kernel learned about the check it stopped at.
type scanner struct {
	host *Host // the CPUs the checks compute on; nil for SleepScan
	d    Duration
	i, n int
	stop func(int) bool
	// parked is set while the proc is parked in the sleep before check i.
	parked bool
	// checked is set once the kernel has evaluated check i without a
	// panic, to hit.
	checked, hit bool
}

// SleepScan runs
//
//	for i := from; i < n; i++ {
//		p.Sleep(d)
//		if stop(i) {
//			return i
//		}
//	}
//	return n
//
// with the same events, instants and sequence numbers, but while p is
// parked in one of those sleeps the kernel may evaluate stop itself, at
// the wake, and sleep on without switching into p. stop must only read
// state: it must not schedule, block, or write anything another proc or
// event reads. A check that panics is evaluated again by p, which panics
// as its body would.
func (p *Proc) SleepScan(d Duration, from, n int, stop func(int) bool) int {
	if d < 0 {
		d = 0
	}
	return p.runScan(nil, d, from, n, stop)
}

// runScan is the loop of SleepScan (h nil) and Thread.ComputeScan (h the
// thread's host, d > 0).
func (p *Proc) runScan(h *Host, d Duration, from, n int, stop func(int) bool) int {
	for i := from; i < n; i++ {
		if h != nil {
			h.cpus.Acquire(p)
		}
		checked, hit := false, false
		if !p.k.wakeInPlace(p, d) {
			sc := p.scan
			if sc == nil {
				sc = new(scanner)
				p.scan = sc
			}
			sc.host, sc.d, sc.i, sc.n, sc.stop = h, d, i, n, stop
			sc.parked, sc.checked = true, false
			p.park()
			sc.parked, sc.stop = false, nil
			i, checked, hit = sc.i, sc.checked, sc.hit
		}
		if h != nil {
			h.busy += d
			h.cpus.Release()
		}
		if !checked {
			hit = stop(i)
		}
		if hit {
			return i
		}
	}
	return n
}

// next continues p's scan at the wake of its sleep before check sc.i, as p
// would, until p must run: at a check that stops the scan or panics, at the
// last check, or when another thread waits for the host's CPU. Each further
// sleep is p's own (Kernel.wakeInPlace). It reports whether p stays parked,
// its next wake pushed; the wake it was called at is then counted as
// scanned.
func (sc *scanner) next(p *Proc) bool {
	for {
		if !sc.check() || sc.hit || sc.i+1 >= sc.n || sc.host != nil && len(sc.host.cpus.waiters) > 0 {
			return false
		}
		// End this compute and start the next: with no waiter, Release and
		// Acquire leave the semaphore as it was.
		if sc.host != nil {
			sc.host.busy += sc.d
		}
		sc.i++
		sc.checked = false
		if !p.k.wakeInPlace(p, sc.d) {
			p.shard.scanned++
			return true
		}
	}
}

// check evaluates the check at sc.i into sc.hit and reports whether it
// returned; a panic is left for the proc to raise.
func (sc *scanner) check() bool {
	defer func() { recover() }()
	sc.hit = sc.stop(sc.i)
	sc.checked = true
	return true
}
