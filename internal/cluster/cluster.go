// Package cluster assembles the full simulated testbed: the discrete-event
// kernel, the QsNetII fabric, one host + Elan4 NIC per node, the RTE
// registry, and per-process communication stacks (PML + PTL modules). It
// is the harness under the public qsmpi API, the examples, and the
// benchmark drivers.
package cluster

import (
	"fmt"
	"iter"
	"math"

	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptl"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/ptltcp"
	"qsmpi/internal/rte"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Spec configures a cluster and the communication stack of each process.
type Spec struct {
	// Model is the hardware cost model; zero means model.Default().
	Model *model.Config
	// Nodes is the node count (defaults to the number of launched procs;
	// procs are placed round-robin on nodes).
	Nodes int

	// Elan enables the PTL/Elan4 module with the given options.
	Elan *ptlelan4.Options
	// ElanRails is the number of Quadrics rails (fabrics + NICs per node);
	// 0 or 1 means a single rail. The PML stripes large messages across
	// all rails — the paper's "multi-rail communication over Quadrics"
	// future work.
	ElanRails int
	// TCP enables the TCP PTL module (secondary rail or sole transport).
	TCP *ptltcp.Options
	// DTP enables the datatype copy engine (vs generic memcpy).
	DTP bool
	// Progress selects the PML progress mode.
	Progress pml.ProgressMode

	// Tracer, when non-nil, receives the cross-layer event stream of every
	// rank: PML, PTL modules, Elan4 NICs and the fabrics all record into
	// it. The simulation is cooperative, so one recorder serves all layers
	// without locking. Never share one tracer across concurrently running
	// kernels (the parsweep ownership rule).
	Tracer *trace.Recorder
	// Metrics, when non-nil, is populated with collectors for every layer
	// at bringup (see Cluster.RegisterMetrics) and provides the per-rank
	// send/recv latency histograms.
	Metrics *obs.Registry
	// Watchdog, when non-nil, monitors per-rank progress in virtual time:
	// a rank with pending requests silent for the watchdog's window, or
	// busy when the run deadlocks, is dumped as a structured stall
	// diagnostic, and Cluster.Run appends the diagnostics to its error.
	Watchdog *obs.Watchdog
	// Sampler, when non-nil, is the virtual-time telemetry sampler: a
	// coordinator timer snapshots every rank's gauges (queue depths,
	// progress duty, pending requests) and every node's fabric link
	// counters into rank×time and link×time matrices on a fixed virtual
	// period, emitting GaugeSample trace events when a Tracer is also
	// attached. Like the watchdog it reads state but never charges
	// virtual time; absent, nothing is armed.
	Sampler *obs.Sampler

	// HWColl builds each rank's node of the NIC-resident collective tree
	// at launch (after connection setup, before the mpi-init rendezvous),
	// enabling the hardware Barrier/Allreduce path. Requires the Elan
	// transport; with a Peers restriction in place, the peer sets must
	// include every rank's tree neighbours (ptlelan4.HWCollPeers).
	HWColl bool
	// Peers, when non-nil, restricts connection setup: rank connects only
	// to Peers(rank, nprocs) instead of every other rank. A 4096-rank
	// full mesh is 16.7M connections of pure bringup; collective-only
	// workloads list the log-P neighbourhoods they actually use. The sets
	// must be symmetric (if a lists b, b must list a) and every rank the
	// workload sends to must be listed. nil keeps the full mesh.
	Peers func(rank, nprocs int) []int

	// Shards is the worker-shard count of the conservative parallel kernel
	// (see internal/simtime). 0 or 1 adds no worker: every entity lives on
	// the coordinator shard and the run never leaves the sequential phase.
	// Node i (its host, NICs and every rank placed on it) is simulation
	// entity i+1 either way; with N > 1 the nodes are partitioned into N
	// contiguous blocks, and cross-shard traffic rides the fabric, whose
	// wire latency is the engine's lookahead. Output is byte-identical at
	// every shard count. Incompatible with LinkLossRate > 0: Validate
	// refuses (the lossy retransmit path serializes through shared link
	// state mid-flight).
	Shards int
}

// Validate reports the first rule s breaks, with its reason, or nil. New
// panics with the error; qsmpi.Run returns it and the tools exit 2 on it.
func (s Spec) Validate() error {
	cfg := model.Default()
	if s.Model != nil {
		cfg = *s.Model
	}
	elan := s.Elan != nil
	switch {
	case !elan && s.TCP == nil:
		return fmt.Errorf("cluster: no transport (enable Elan, TCP or both)")
	case elan && s.Elan.Scheme != ptlelan4.RDMARead && s.Elan.Scheme != ptlelan4.RDMAWrite:
		return fmt.Errorf("cluster: Elan scheme %d (valid: 0 rdma-read, 1 rdma-write)", s.Elan.Scheme)
	case elan && (s.Elan.CQ < ptlelan4.NoCQ || s.Elan.CQ > ptlelan4.TwoQueue):
		return fmt.Errorf("cluster: completion queue %d (valid: 0 no-cq, 1 one-queue, 2 two-queue)", s.Elan.CQ)
	case s.Progress < pml.Polling || s.Progress > pml.Threaded:
		return fmt.Errorf("cluster: progress mode %d (valid: 0 polling, 1 interrupt, 2 threaded)", s.Progress)
	case s.TCP != nil && !(s.TCP.Weight >= 0 && s.TCP.Weight <= math.MaxFloat64):
		return fmt.Errorf("cluster: TCP weight %v (valid: finite and at least 0, 0 for the default)", s.TCP.Weight)
	case s.Nodes < 0:
		return fmt.Errorf("cluster: %d nodes (valid: 0 for one per process, or more)", s.Nodes)
	case s.ElanRails < 0:
		return fmt.Errorf("cluster: %d Elan rails (valid: 0 or 1 for one rail, or more)", s.ElanRails)
	case elan && (s.Elan.EagerLimit < 0 || s.Elan.EagerLimit > cfg.QDMAMaxPayload-ptl.HeaderSize):
		return fmt.Errorf("cluster: eager limit %d outside the QDMA slot (valid: 0 for all of it, up to %d)", s.Elan.EagerLimit, cfg.QDMAMaxPayload-ptl.HeaderSize)
	case !(cfg.LinkLossRate >= 0 && cfg.LinkLossRate < 1):
		return fmt.Errorf("cluster: link loss rate %v outside [0, 1)", cfg.LinkLossRate)
	case s.Shards > 1 && cfg.LinkLossRate > 0:
		return fmt.Errorf("cluster: worker shards with a lossy link (retransmits serialize through shared link state and one global loss stream)")
	case s.HWColl && !elan:
		return fmt.Errorf("cluster: HWColl requires the Elan transport")
	case s.Progress == pml.InterruptWait && elan && (s.ElanRails > 1 || s.TCP != nil || s.Elan.CQ != ptlelan4.OneQueue):
		return fmt.Errorf("cluster: interrupt progress blocks on one Elan receive queue, so it needs one rail, no TCP and the combined (OneQueue) completion queue")
	case s.Progress == pml.Threaded && (!elan || s.Elan.CQ == ptlelan4.NoCQ):
		return fmt.Errorf("cluster: threaded progress runs one Elan progress thread per completion queue, so it needs Elan with OneQueue (one thread) or TwoQueue (two)")
	}
	return nil
}

// progressRows is the paper's Table 1: the PTL completion queue and the PML
// progress mode each row fixes (Threaded runs a thread per queue). The three
// rows that differ in thread count alone also answer to that count, the
// spelling of the tools' -threads flag and of qsmpi.Config.ProgressThreads.
var progressRows = []struct {
	name, count string
	cq          ptlelan4.CQMode
	progress    pml.ProgressMode
}{
	{"basic", "0", ptlelan4.NoCQ, pml.Polling},
	{"interrupt", "", ptlelan4.OneQueue, pml.InterruptWait},
	{"one-thread", "1", ptlelan4.OneQueue, pml.Threaded},
	{"two-threads", "2", ptlelan4.TwoQueue, pml.Threaded},
}

// WithProgressRow returns s with the progress mode of one Table 1 row,
// named ("basic", "interrupt", "one-thread", "two-threads") or given as a
// progress-thread count ("0", "1", "2"). The Elan options are copied, not
// written through.
func (s Spec) WithProgressRow(row string) (Spec, error) {
	for _, r := range progressRows {
		if row == "" || row != r.name && row != r.count {
			continue
		}
		s.Progress = r.progress
		if s.Elan != nil {
			o := *s.Elan
			o.CQ = r.cq
			s.Elan = &o
		}
		return s, nil
	}
	return s, fmt.Errorf("cluster: no progress mode %q (valid: basic, interrupt, one-thread, two-threads, or 0, 1, 2 progress threads)", row)
}

// Proc is one launched MPI process with its full stack. Stack.Modules() is
// the one list of its PTL modules, rails first and TCP last; the typed
// fields below are the same modules, for what only their transport has
// (its counters, the NIC collective tree).
type Proc struct {
	Rank  int
	Th    *simtime.Thread
	Stack *pml.Stack
	State *libelan.State
	Elan  *ptlelan4.Module
	// Elans holds every rail's module (Elans[0] == Elan).
	Elans []*ptlelan4.Module
	TCP   *ptltcp.Module
	RTE   *rte.Handle
}

// Cluster is the simulated testbed.
type Cluster struct {
	K   *simtime.Kernel
	Cfg model.Config
	Net *fabric.Network
	// RailNets holds every Quadrics rail's fabric (RailNets[0] == Net).
	RailNets []*fabric.Network
	EthNet   *fabric.Network
	Registry *rte.Registry
	Hosts    []*simtime.Host
	NICs     []*elan4.NIC
	// RailNICs is indexed [rail][node] (RailNICs[0] == NICs).
	RailNICs [][]*elan4.NIC

	spec   Spec
	nprocs int
	procs  []*Proc
	// names is every rank's registry name, built once; SpawnExtra renames.
	names []string

	// nodeRecs holds one trace recorder per node under a sharded kernel
	// (worker shards append concurrently, so the single Spec.Tracer cannot
	// serve them all); Run merges them into Spec.Tracer deterministically.
	nodeRecs []*trace.Recorder
	// initDone counts ranks through the mpi-init rendezvous; the last one
	// enables parallel epochs.
	initDone int
}

// entityOf maps a node index to its simulation entity: entity 0 is the
// coordinator-owned global services, node i is entity i+1.
func entityOf(node int) simtime.Entity { return simtime.Entity(node + 1) }

// New builds the physical cluster for a given spec and process count.
func New(spec Spec, nprocs int) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	cfg := model.Default()
	if spec.Model != nil {
		cfg = *spec.Model
	}
	nodes := spec.Nodes
	if nodes == 0 {
		nodes = nprocs
	}
	k := simtime.NewKernel()
	if spec.Shards > 1 {
		look := cfg.WireLatency
		if spec.TCP != nil && cfg.TCPWireLatency < look {
			look = cfg.TCPWireLatency
		}
		shards := spec.Shards
		if shards > nodes {
			shards = nodes
		}
		// Contiguous block partition: node i → worker floor(i*S/nodes)+1.
		k.Shard(simtime.ShardPlan{
			Workers: shards,
			Owner: func(e simtime.Entity) int {
				return (int(e)-1)*shards/nodes + 1
			},
			Lookahead: look,
		})
	}
	c := &Cluster{
		K: k, Cfg: cfg, spec: spec, nprocs: nprocs,
		Registry: rte.NewRegistry(k, cfg.OOBLatency),
		names:    make([]string, 0, nprocs),
	}
	rails := spec.ElanRails
	if rails < 1 {
		rails = 1
	}
	for r := 0; r < rails; r++ {
		c.RailNets = append(c.RailNets, fabric.New(k, cfg.QuadricsFabric(), nodes))
	}
	c.Net = c.RailNets[0]
	if spec.TCP != nil {
		c.EthNet = fabric.New(k, fabric.Params{
			LinkBandwidth:  cfg.TCPLinkBandwidth,
			WireLatency:    cfg.TCPWireLatency,
			SwitchLatency:  0,
			MTU:            cfg.TCPMTU,
			PacketOverhead: 58, // Ethernet + IP + TCP headers
			Arity:          48, // a big top-of-rack switch
		}, nodes)
	}
	if spec.Elan != nil {
		c.RailNICs = make([][]*elan4.NIC, rails)
	}
	if spec.Tracer != nil && k.Sharded() > 0 {
		c.nodeRecs = make([]*trace.Recorder, nodes)
		for i := range c.nodeRecs {
			c.nodeRecs[i] = trace.NewRecorder(0)
		}
	}
	for i := 0; i < nodes; i++ {
		h := simtime.NewHostSched(k.SchedFor(entityOf(i)), fmt.Sprintf("node%d", i), cfg.HostCPUs)
		c.Hosts = append(c.Hosts, h)
		if spec.Elan != nil {
			for r := 0; r < rails; r++ {
				c.RailNICs[r] = append(c.RailNICs[r], elan4.NewNIC(k, h, c.RailNets[r], i, cfg, c.Registry))
			}
		}
		// Bind every fabric port to its node's entity so injection and
		// delivery run on the owning shard.
		for _, net := range c.RailNets {
			net.BindPort(i, h.Sched(), c.tracerFor(i))
		}
		if c.EthNet != nil {
			c.EthNet.BindPort(i, h.Sched(), c.tracerFor(i))
		}
	}
	if spec.Elan != nil {
		c.NICs = c.RailNICs[0]
	}
	if spec.Tracer != nil {
		for _, rail := range c.RailNICs {
			for i, nic := range rail {
				nic.SetTracer(c.tracerFor(i))
			}
		}
	}
	if spec.Metrics != nil {
		c.RegisterMetrics(spec.Metrics)
	}
	if spec.Watchdog != nil {
		spec.Watchdog.Bind(k, spec.Tracer)
	}
	if spec.Sampler != nil {
		spec.Sampler.Bind(k)
		for r, net := range c.RailNets {
			for i := 0; i < len(c.Hosts); i++ {
				net, i := net, i
				spec.Sampler.RegisterLink(i, r, c.tracerFor(i), func() [obs.NumLinkGauges]int64 {
					pc := net.PortCounters(i)
					var v [obs.NumLinkGauges]int64
					v[obs.LinkGaugePackets] = pc.UplinkPackets
					v[obs.LinkGaugeBytes] = pc.UplinkBytes
					v[obs.LinkGaugeBytesIn] = pc.BytesIn
					return v
				})
			}
		}
	}
	return c
}

// tracerFor returns the recorder a node's layers should record into: the
// node's private recorder under a sharded kernel, the shared Spec.Tracer
// otherwise (nil when tracing is off).
func (c *Cluster) tracerFor(node int) *trace.Recorder {
	if c.nodeRecs != nil {
		return c.nodeRecs[node]
	}
	return c.spec.Tracer
}

// mergeTraces folds the per-node recorders into Spec.Tracer after a
// sharded run. Within a node the record order is the node's deterministic
// execution order; across nodes events merge by (time, node, node-local
// order), which is independent of the shard count.
//
// It is a k-way merge: a min-heap of the nodes' next events keyed (time,
// node index), each recorder read in place through one pull cursor.
func (c *Cluster) mergeTraces() {
	if c.nodeRecs == nil {
		return
	}
	type cursor struct {
		head trace.Event
		node int
		next func() (trace.Event, bool)
	}
	before := func(a, b *cursor) bool {
		return a.head.At < b.head.At || a.head.At == b.head.At && a.node < b.node
	}
	var heap []*cursor
	// down restores the heap below slot i after its key grew.
	down := func(i int) {
		for {
			least := i
			for kid := 2*i + 1; kid <= 2*i+2 && kid < len(heap); kid++ {
				if before(heap[kid], heap[least]) {
					least = kid
				}
			}
			if least == i {
				return
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for node, r := range c.nodeRecs {
		if r.Len() == 0 {
			continue
		}
		next, stop := iter.Pull(r.All())
		defer stop()
		cur := &cursor{node: node, next: next}
		cur.head, _ = next()
		heap = append(heap, cur)
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		top := heap[0]
		c.spec.Tracer.Record(top.head)
		var ok bool
		if top.head, ok = top.next(); !ok {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	c.nodeRecs = nil
}

// ProcName is the RTE registry name for a rank of the job; dynamically
// spawned ranks follow the same scheme so connection setup is uniform.
func ProcName(rank int) string { return fmt.Sprintf("job0.rank%d", rank) }

// nameSlot is rank's entry in the name table, grown by ProcName's scheme.
func (c *Cluster) nameSlot(rank int) *string {
	for len(c.names) <= rank {
		c.names = append(c.names, ProcName(len(c.names)))
	}
	return &c.names[rank]
}

// Launch spawns the initial job: nprocs processes whose main threads run
// bringup (RTE join, PTL open/init, connection setup to every peer, a
// job-wide rendezvous) and then the user main.
func (c *Cluster) Launch(main func(p *Proc)) {
	// Every rank of a full mesh connects to the whole job, and builds its
	// node of the NIC tree over it, from one table that nobody writes.
	all := make([]int, c.nprocs)
	for i := range all {
		all[i] = i
	}
	for r := 0; r < c.nprocs; r++ {
		r := r
		node := r % len(c.Hosts)
		c.Hosts[node].Spawn(fmt.Sprintf("rank%d", r), func(th *simtime.Thread) {
			p := c.bringup(th, r, node, *c.nameSlot(r))
			peers := all // everybody reachable from everybody, or Spec.Peers
			if c.spec.Peers != nil {
				peers = c.spec.Peers(r, c.nprocs)
			}
			c.ConnectPeers(p, peers)
			if c.spec.HWColl {
				// Before the rendezvous: every rank's rings must exist
				// before any member starts collective traffic (a QDMA to
				// a missing ring is a hard fault, not a retry).
				if !p.Elan.SetupHWColl(th, all, r) && c.nprocs > 1 {
					panic(fmt.Sprintf("cluster: rank %d cannot build its NIC collective tree (missing tree neighbour in Peers?)", r))
				}
			}
			c.Registry.Rendezvous(th, "mpi-init", c.nprocs)
			// Bringup is all shared-service traffic (RTE joins, OOB
			// connection setup), so it runs sequentially; once the last
			// rank clears the rendezvous the steady state is pure
			// fabric traffic and worker epochs can start. The counter
			// is safe: it only advances in the sequential phase.
			c.initDone++
			if c.initDone == c.nprocs {
				c.K.EnableParallel()
			}
			main(p)
		})
	}
}

// bringup builds one process's stack on a node: claim a NIC context from
// the capability, attach libelan, create the PML and modules, and
// initialize (lifecycle stages one and two).
func (c *Cluster) bringup(th *simtime.Thread, rank, node int, name string) *Proc {
	p := &Proc{Rank: rank, Th: th}
	p.Stack = pml.NewStack(c.K, c.Hosts[node], c.Cfg, rank, c.spec.DTP, c.spec.Progress)
	if c.spec.Tracer != nil {
		// Through tracerFor, not Spec.Tracer directly: under a sharded
		// kernel the stack runs inside a worker shard and must append to
		// its node's private recorder (merged at Run), never to the
		// shared one another worker may be appending to concurrently.
		p.Stack.Tracer = c.tracerFor(node)
	}
	if c.spec.Metrics != nil {
		p.Stack.SendLatency = c.spec.Metrics.Histogram("pml", "send_latency", rank)
		p.Stack.RecvLatency = c.spec.Metrics.Histogram("pml", "recv_latency", rank)
	}
	if c.spec.Watchdog != nil {
		p.Stack.Watchdog = c.spec.Watchdog
		c.spec.Watchdog.Register(rank, func() obs.StallDiag {
			d := obs.StallDiag{
				PendingSends:    p.Stack.PendingSends(),
				PendingRecvs:    p.Stack.PendingRecvs(),
				UnexpectedDepth: p.Stack.UnexpectedDepth(),
			}
			for _, m := range p.Elans {
				d.OutstandingDMA += m.OutstandingDMA()
			}
			return d
		})
	}
	if c.spec.Sampler != nil {
		c.spec.Sampler.RegisterRank(rank, node, c.tracerFor(node), func(now simtime.Time) [obs.NumRankGauges]int64 {
			var v [obs.NumRankGauges]int64
			v[obs.GaugeDuty] = int64(p.Stack.DutyPermille(now))
			v[obs.GaugePendingSends] = int64(p.Stack.PendingSends())
			v[obs.GaugePendingRecvs] = int64(p.Stack.PendingRecvs())
			v[obs.GaugeUnexpected] = int64(p.Stack.UnexpectedDepth())
			for _, m := range p.Elans {
				recvD, compD := m.QueueDepths()
				v[obs.GaugeRecvQDepth] += int64(recvD)
				v[obs.GaugeCQDepth] += int64(compD)
				v[obs.GaugeSendBufs] += int64(m.SendBufInFlight())
			}
			return v
		})
	}

	if c.spec.Elan != nil {
		ctxID := c.Registry.AllocContext(node)
		mmu := elan4.NewMMU() // shared across rails: register once, RDMA anywhere
		p.RTE = c.Registry.Join(th, name, node, ctxID)
		for r := range c.RailNICs {
			ctx := c.RailNICs[r][node].OpenContextMMU(ctxID, mmu)
			ctx.SetVPID(p.RTE.VPID())
			st := libelan.Attach(ctx, c.Cfg)
			mod := ptlelan4.New(c.K, c.Hosts[node], st, p.RTE, p.Stack, p.Stack.Activity(), c.Cfg, *c.spec.Elan, c.spec.Progress == pml.Threaded)
			if c.spec.Tracer != nil {
				mod.SetTracer(c.tracerFor(node))
			}
			mod.Init(th)
			p.Stack.AddModule(mod)
			p.Elans = append(p.Elans, mod)
			if r == 0 {
				p.State = st
				p.Elan = mod
			}
		}
	} else {
		p.RTE = c.Registry.Join(th, name, node, 0)
	}
	if c.spec.TCP != nil {
		tcp := ptltcp.New(c.K, c.Hosts[node], c.EthNet, node, p.RTE, p.Stack, p.Stack.Activity(), c.Cfg, *c.spec.TCP)
		if c.spec.Tracer != nil {
			tcp.SetTracer(c.tracerFor(node))
		}
		tcp.Init(th)
		p.Stack.AddModule(tcp)
		p.TCP = tcp
	}
	c.procs = append(c.procs, p)
	return p
}

// ConnectPeers wires peers, by rank (p's own is skipped), into a process's
// stack through every enabled module — Launch's connection setup and the
// dynamic-join entry point — from one slab: a peer costs no allocation.
func (c *Cluster) ConnectPeers(p *Proc, ranks []int) {
	peers := make([]ptl.Peer, 0, len(ranks))
	for _, r := range ranks {
		if r != p.Rank {
			peers = append(peers, ptl.Peer{Rank: r, Name: *c.nameSlot(r)})
		}
	}
	if err := p.Stack.AddPeers(p.Th, peers); err != nil {
		panic(err)
	}
}

// SpawnExtra launches an additional process, rank's namesake from now on,
// after the initial job is running (MPI-2 dynamic process management). The
// caller coordinates rendezvous/connection with the existing job via RTE
// primitives. On a sharded kernel the caller must be in the sequential
// phase (see Kernel.AwaitSequential); dynamic bringup is shared-service traffic.
func (c *Cluster) SpawnExtra(rank, node int, name string, main func(p *Proc)) {
	*c.nameSlot(rank) = name
	c.Hosts[node].Spawn(fmt.Sprintf("dyn-rank%d", rank), func(th *simtime.Thread) {
		p := c.bringup(th, rank, node, name)
		main(p)
	})
}

// Finalize drains, finalizes and closes one process's stack (lifecycle
// stages four and five), then leaves the RTE. Teardown touches shared
// services (module close, RTE leave), so on a sharded kernel it first drops
// back to the sequential phase; the remainder of the run stays
// coordinator-only.
func (p *Proc) Finalize() {
	p.Th.Host().Kernel().AwaitSequential(p.Th.Proc())
	p.Stack.Finalize(p.Th)
	p.RTE.Leave(p.Th)
}

// Run executes the simulation to quiescence and reports deadlocks, with
// an attached watchdog's diagnostics of every rank still busy then. The
// cluster created the kernel, so Run closes it on the way out — once the
// deadlock report has been taken — unwinding whatever is still parked
// (progress threads, the participants of a deadlock): no goroutine
// outlives Run, and a cluster runs once.
func (c *Cluster) Run() error {
	defer c.K.Close()
	c.K.Run()
	c.mergeTraces()
	if st := c.K.Stalled(); len(st) != 0 {
		if c.spec.Watchdog != nil {
			c.spec.Watchdog.Quiesced(c.K.Now())
			if diag := c.spec.Watchdog.Render(); diag != "" {
				return fmt.Errorf("cluster: deadlock, stalled procs: %v\n%s", st, diag)
			}
		}
		return fmt.Errorf("cluster: deadlock, stalled procs: %v", st)
	}
	return nil
}

// Now returns the current virtual time.
func (c *Cluster) Now() simtime.Time { return c.K.Now() }

// RegisterMetrics installs collectors for every layer of the cluster into
// r. The collectors read the live component slices at Snapshot time, so
// processes brought up after registration (Launch runs inside Run) and
// dynamically spawned ranks are all included. Collection never runs on a
// communication path and charges no virtual time.
func (c *Cluster) RegisterMetrics(r *obs.Registry) {
	r.Collect(func(emit obs.EmitFn) {
		// Elan4 NICs, per node (rails sum).
		for _, rail := range c.RailNICs {
			for node, nic := range rail {
				st := nic.Stats()
				emit("elan4", "qdmas", node, float64(st.QDMAs))
				emit("elan4", "rdma_writes", node, float64(st.RDMAWrites))
				emit("elan4", "rdma_reads", node, float64(st.RDMAReads))
				emit("elan4", "dma_completed", node, float64(st.DMACompleted))
				emit("elan4", "chain_fires", node, float64(st.ChainFires))
				emit("elan4", "bytes_sent", node, float64(st.BytesSent))
				emit("elan4", "retries", node, float64(st.Retries))
				emit("elan4", "interrupts", node, float64(st.Interrupts))
			}
		}
		// Fabrics (all Quadrics rails plus the Ethernet, cluster-global).
		nets := append([]*fabric.Network(nil), c.RailNets...)
		if c.EthNet != nil {
			nets = append(nets, c.EthNet)
		}
		for _, net := range nets {
			sent, delivered := net.Stats()
			emit("fabric", "pkts_sent", -1, float64(sent))
			emit("fabric", "pkts_delivered", -1, float64(delivered))
			emit("fabric", "payload_bytes", -1, float64(net.BytesSent()))
			emit("fabric", "retransmits", -1, float64(net.Retransmits()))
		}
		// Per-process stacks and PTL modules.
		for _, p := range c.procs {
			ps := p.Stack.Stats()
			emit("pml", "sends", p.Rank, float64(ps.Sends))
			emit("pml", "recvs", p.Rank, float64(ps.Recvs))
			emit("pml", "eager_sends", p.Rank, float64(ps.EagerSends))
			emit("pml", "rndv_sends", p.Rank, float64(ps.RndvSends))
			emit("pml", "unexpected", p.Rank, float64(ps.UnexpectedMsgs))
			emit("pml", "unexpected_high_water", p.Rank, float64(ps.UnexpectedHighWater))
			emit("pml", "reordered", p.Rank, float64(ps.ReorderedMsgs))
			emit("pml", "match_attempts", p.Rank, float64(ps.MatchAttempts))
			emit("pml", "match_bucket_hits", p.Rank, float64(ps.BucketHits))
			emit("pml", "match_wildcard_hits", p.Rank, float64(ps.WildcardHits))
			// Progress-engine duty cycle (DESIGN.md §8.3): virtual time in
			// progress sweeps vs. parked in waits, plus probe/sweep counts.
			emit("pml", "tests", p.Rank, float64(ps.Tests))
			emit("pml", "progress_polls", p.Rank, float64(ps.ProgressPolls))
			emit("pml", "progress_us", p.Rank, p.Stack.ProgressTime().Micros())
			emit("pml", "idle_us", p.Rank, p.Stack.IdleTime().Micros())
			for _, m := range p.Elans {
				es := m.Stats()
				emit("ptl", "eager_tx", p.Rank, float64(es.EagerTx))
				emit("ptl", "rndv_tx", p.Rank, float64(es.RndvTx))
				emit("ptl", "ack_tx", p.Rank, float64(es.AckTx))
				emit("ptl", "fin_tx", p.Rank, float64(es.FinTx))
				emit("ptl", "fin_ack_tx", p.Rank, float64(es.FinAckTx))
				emit("ptl", "put_ops", p.Rank, float64(es.PutOps))
				emit("ptl", "get_ops", p.Rank, float64(es.GetOps))
				emit("ptl", "cq_records", p.Rank, float64(es.CQRecords))
				emit("ptl", "host_issued_fins", p.Rank, float64(es.HostIssuedFins))
				emit("ptl", "sendbuf_high_water", p.Rank, float64(es.SendBufHighWater))
				emit("ptl", "sendbuf_stalls", p.Rank, float64(es.SendBufStalls))
				recvHW, compHW := m.QueueHighWater()
				emit("ptl", "recvq_high_water", p.Rank, float64(recvHW))
				emit("ptl", "cq_high_water", p.Rank, float64(compHW))
				recvD, compD := m.QueueDepths()
				emit("ptl", "recvq_depth", p.Rank, float64(recvD))
				emit("ptl", "cq_depth", p.Rank, float64(compD))
			}
			if p.TCP != nil {
				ts := p.TCP.Stats()
				emit("ptl", "tcp_msgs_tx", p.Rank, float64(ts.MsgsTx))
				emit("ptl", "tcp_msgs_rx", p.Rank, float64(ts.MsgsRx))
				emit("ptl", "tcp_segs_tx", p.Rank, float64(ts.SegsTx))
				emit("ptl", "tcp_segs_rx", p.Rank, float64(ts.SegsRx))
				emit("ptl", "tcp_bytes_tx", p.Rank, float64(ts.BytesTx))
			}
		}
		// Cluster-level shape and clock. host_busy_us is each node's CPU
		// busy time — the "compute" leg of the §8.3 duty-cycle split
		// (progress_us / idle_us are the per-rank PML legs).
		emit("cluster", "procs", -1, float64(len(c.procs)))
		emit("cluster", "nodes", -1, float64(len(c.Hosts)))
		emit("cluster", "now_us", -1, c.K.Now().Micros())
		for node, h := range c.Hosts {
			emit("cluster", "host_busy_us", node, h.BusyTime().Micros())
		}
	})
}

// Procs returns every process brought up so far (initial job and
// dynamically spawned), in bringup order.
func (c *Cluster) Procs() []*Proc { return c.procs }
