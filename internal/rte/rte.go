// Package rte models the Open MPI Run-Time Environment: the out-of-band
// services that exist outside the high-performance network. It owns the
// system-wide Elan4 capability (allocation of NIC contexts and virtual
// process ids), the process registry that decouples MPI ranks from VPIDs,
// a modex-style publish/lookup board for connection bootstrap (queue ids,
// E4 addresses), and job rendezvous.
//
// Every RTE operation costs OOBLatency of virtual time: this traffic rides
// a management network (ssh/TCP in real deployments), not QsNet, which is
// why the paper keeps it off the critical path — connection setup happens
// collectively during MPI_Init, and dynamic joins pay RTE costs only when
// they happen.
package rte

import (
	"fmt"

	"qsmpi/internal/simtime"
)

// procInfo is the registry's record of one process.
type procInfo struct {
	vpid  int
	port  int // fabric port of its NIC
	ctx   int // NIC context id
	alive bool
	attrs map[string][]byte
}

// Registry is the system-wide RTE state. It implements elan4.Resolver so
// NICs can translate VPIDs to current locations — the indirection that
// makes dynamic process management possible over a network whose native
// library assumes a static process pool.
type Registry struct {
	k   *simtime.Kernel
	oob simtime.Duration

	procs    map[int]*procInfo // by VPID
	byName   map[string]*procInfo
	nextVPID int
	nextCtx  map[int]int // per fabric port

	version    *simtime.Counter // bumped on any registry mutation
	rendezvous map[string]*meet
}

type meet struct {
	arrived int
	done    *simtime.Signal
}

// NewRegistry creates an empty registry whose OOB operations take
// oobLatency each.
func NewRegistry(k *simtime.Kernel, oobLatency simtime.Duration) *Registry {
	return &Registry{
		k:          k,
		oob:        oobLatency,
		procs:      make(map[int]*procInfo),
		byName:     make(map[string]*procInfo),
		nextCtx:    make(map[int]int),
		version:    simtime.NewCounter(),
		rendezvous: make(map[string]*meet),
	}
}

// sequentialOnly panics when worker epochs are enabled. RTE traffic rides
// the management network and mutates (or blocks on) registry state shared
// across every rank, so it is only legal in the kernel's sequential
// phases: bringup, finalize and dynamic process events. Resolve, a pure
// read, stays legal everywhere — the guarded mutators are what keep it
// race-free during epochs.
func (r *Registry) sequentialOnly(op string) {
	if r.k.InParallel() {
		panic("rte: " + op + " during a parallel phase — RTE operations are sequential-only")
	}
}

// Resolve implements elan4.Resolver: the current location of a VPID.
func (r *Registry) Resolve(vpid int) (port, ctx int, ok bool) {
	p, ok := r.procs[vpid]
	if !ok || !p.alive {
		return 0, 0, false
	}
	return p.port, p.ctx, true
}

// AllocContext claims the next free NIC context on a fabric port, modeling
// "claiming an available context in a system-wide Elan4 capability".
func (r *Registry) AllocContext(port int) int {
	c := r.nextCtx[port]
	r.nextCtx[port] = c + 1
	return c
}

// Handle is one process's session with the registry.
type Handle struct {
	r    *Registry
	info *procInfo
	// idle is a lookup's state kept for the next LookupEach on this handle.
	idle *lookup
}

// lookup is one LookupEach call's state: the key and the names to look it
// up under, and missing, the call's scan check, bound once with it.
type lookup struct {
	r       *Registry
	key     string
	name    func(int) string
	missing func(int) bool
}

// value returns name(i)'s published value of the key, if any.
func (l *lookup) value(i int) ([]byte, bool) {
	if p, ok := l.r.byName[l.name(i)]; ok {
		v, ok := p.attrs[l.key]
		return v, ok
	}
	return nil, false
}

// Join registers a process running on the NIC at (port, ctx) under a
// unique name and returns its handle with a freshly allocated VPID. Names
// must be unique across the job; reusing one panics (it would alias two
// processes in the modex).
func (r *Registry) Join(th *simtime.Thread, name string, port, ctx int) *Handle {
	r.sequentialOnly("Join")
	th.Proc().Sleep(r.oob)
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("rte: duplicate process name %q", name))
	}
	info := &procInfo{vpid: r.nextVPID, port: port, ctx: ctx, alive: true, attrs: make(map[string][]byte)}
	r.nextVPID++
	r.procs[info.vpid] = info
	r.byName[name] = info
	r.version.Add(1)
	return &Handle{r: r, info: info}
}

// VPID returns the process's virtual process id.
func (h *Handle) VPID() int { return h.info.vpid }

// Leave marks the process departed; its VPID stops resolving. A process
// must have drained pending DMA traffic first (the transports enforce
// this), or in-flight descriptors will fail against the dead VPID.
func (h *Handle) Leave(th *simtime.Thread) {
	h.r.sequentialOnly("Leave")
	th.Proc().Sleep(h.r.oob)
	h.info.alive = false
	h.r.version.Add(1)
}

// Publish stores a key/value on the board under this process's name.
func (h *Handle) Publish(th *simtime.Thread, key string, value []byte) {
	h.r.sequentialOnly("Publish")
	th.Proc().Sleep(h.r.oob)
	cp := make([]byte, len(value))
	copy(cp, value)
	h.info.attrs[key] = cp
	h.r.version.Add(1)
}

// LookupEach looks key up under n process names, name(0) to name(n-1), in
// order, and hands each value to got; it returns got's first error. Each
// lookup costs OOBLatency, then blocks until the named process has
// published key. It is how peers exchange queue ids and E4 addresses
// during connection setup; a single lookup is a list of one.
//
// While the names it reaches have published, the latencies pass as one
// scan (simtime.Proc.SleepScan), and the values found are handed to got
// when the scan stops, in order.
func (h *Handle) LookupEach(th *simtime.Thread, key string, n int, name func(int) string, got func(int, []byte) error) error {
	h.r.sequentialOnly("LookupEach")
	l := h.idle
	if l == nil {
		l = &lookup{r: h.r}
		l.missing = func(i int) bool {
			_, ok := l.value(i)
			return !ok
		}
	}
	h.idle = nil
	l.key, l.name = key, name
	err := h.lookupEach(th, l, n, got)
	l.name = nil
	h.idle = l
	return err
}

func (h *Handle) lookupEach(th *simtime.Thread, l *lookup, n int, got func(int, []byte) error) error {
	for i := 0; i < n; i++ {
		for j := th.Proc().SleepScan(h.r.oob, i, n, l.missing); i < j; i++ {
			v, _ := l.value(i)
			if err := got(i, v); err != nil {
				return err
			}
		}
		if i == n {
			break
		}
		// name(i) has not published key: wait for the board to change.
		v, ok := l.value(i)
		for !ok {
			h.r.version.WaitFor(th.Proc(), h.r.version.Value()+1)
			v, ok = l.value(i)
		}
		if err := got(i, v); err != nil {
			return err
		}
	}
	return nil
}

// Rendezvous blocks until n processes have arrived at the same tag. The
// tag is consumed once complete, so it can be reused for later phases.
func (r *Registry) Rendezvous(th *simtime.Thread, tag string, n int) {
	r.sequentialOnly("Rendezvous")
	th.Proc().Sleep(r.oob)
	m, ok := r.rendezvous[tag]
	if !ok {
		m = &meet{done: simtime.NewSignal()}
		r.rendezvous[tag] = m
	}
	m.arrived++
	if m.arrived >= n {
		delete(r.rendezvous, tag)
		m.done.Fire()
		return
	}
	m.done.Wait(th.Proc())
}
