package simtime

import "fmt"

// Host models a compute node with a fixed number of CPUs. Threads spawned
// on a host charge their compute time against the host's CPUs: when more
// threads want to compute than there are CPUs, the surplus queues FIFO.
// Blocking (Sleep on a Signal, waiting on network events) does not occupy
// a CPU, so a host full of blocked progress threads is cheap while a host
// full of polling threads is not — exactly the trade-off Table 1 of the
// paper measures.
type Host struct {
	k    *Kernel
	sc   Sched
	name string
	cpus *Semaphore

	busy     Duration // accumulated CPU-occupied time, across all CPUs
	spawnSeq int
}

// NewHost creates a host named name with ncpu processors under the global
// entity. Sharded clusters use NewHostSched so each host (and every
// thread it spawns) belongs to its node's entity.
func NewHost(k *Kernel, name string, ncpu int) *Host {
	return NewHostSched(k.SchedFor(GlobalEntity), name, ncpu)
}

// NewHostSched creates a host owned by sc's entity.
func NewHostSched(sc Sched, name string, ncpu int) *Host {
	if ncpu < 1 {
		panic("simtime: host needs at least one CPU")
	}
	return &Host{k: sc.k, sc: sc, name: name, cpus: NewSemaphore(ncpu)}
}

// Kernel returns the owning kernel.
func (h *Host) Kernel() *Kernel { return h.k }

// BusyTime returns total CPU-seconds consumed on this host so far, for
// utilization reporting.
func (h *Host) BusyTime() Duration { return h.busy }

// Spawn starts a thread on this host. The thread is a plain simtime Proc
// owned by the host's entity; use Thread.Compute to charge CPU time.
func (h *Host) Spawn(name string, fn func(t *Thread)) *Thread {
	h.spawnSeq++
	t := &Thread{host: h}
	t.proc = h.k.spawn(h.sc.ent, fmt.Sprintf("%s/%s#%d", h.name, name, h.spawnSeq), func(p *Proc) {
		fn(t)
	})
	return t
}

// Sched returns the host's entity scheduling context.
func (h *Host) Sched() Sched { return h.sc }

// Thread is a simulated OS thread bound to a Host.
type Thread struct {
	proc *Proc
	host *Host
}

// Proc returns the underlying simtime process.
func (t *Thread) Proc() *Proc { return t.proc }

// Host returns the host this thread runs on.
func (t *Thread) Host() *Host { return t.host }

// Now returns the current virtual time.
func (t *Thread) Now() Time { return t.proc.Now() }

// Compute occupies one CPU for d of virtual time, queuing FIFO behind
// other computing threads when the host is saturated. It models
// instruction execution: PIO writes, matching logic, memcpy, protocol
// bookkeeping. Like Proc.Sleep, it yields only if other work is due by
// then.
func (t *Thread) Compute(d Duration) {
	if d <= 0 {
		return
	}
	t.host.cpus.Acquire(t.proc)
	t.proc.Sleep(d)
	t.host.busy += d
	t.host.cpus.Release()
}

// ComputeScan runs
//
//	for i := from; i < n; i++ {
//		t.Compute(d)
//		if stop(i) {
//			return i
//		}
//	}
//	return n
//
// with the same events, instants and sequence numbers: a sweep of checks
// that each cost d of CPU. While the thread is parked in one of those
// computes, the kernel may evaluate stop itself at the wake and compute on
// without switching into the thread, as Proc.SleepScan does; it switches
// when another thread waits for the host's CPU. stop must only read state.
func (t *Thread) ComputeScan(d Duration, from, n int, stop func(int) bool) int {
	if d <= 0 {
		for i := from; i < n; i++ {
			if stop(i) {
				return i
			}
		}
		return n
	}
	return t.proc.runScan(t.host, d, from, n, stop)
}

// BlockOn parks the thread on sig without occupying a CPU, then charges
// wake microseconds of CPU time for the wakeup path (scheduler dispatch,
// cache refill) once the signal fires. It models an interrupt-driven or
// condition-variable wait.
func (t *Thread) BlockOn(sig *Signal, wake Duration) {
	sig.Wait(t.proc)
	t.Compute(wake)
}
