// Package qsmpi is a deterministic, simulation-backed reproduction of
// "Design and Implementation of Open MPI over Quadrics/Elan4" (Yu,
// Woodall, Graham, Panda): the Open MPI PML/PTL communication stack over a
// modeled Quadrics QsNetII/Elan4 interconnect, with an MPI-2-flavoured
// user interface including the dynamic process management the paper's
// transport design enables.
//
// A program describes a cluster with a Config and runs an SPMD main over
// it; all communication happens in deterministic virtual time:
//
//	err := qsmpi.Run(qsmpi.Config{Procs: 4}, func(w *qsmpi.World) {
//		c := w.Comm()
//		if c.Rank() == 0 {
//			c.SendBytes(1, 0, []byte("hello"))
//		} else if c.Rank() == 1 {
//			buf := make([]byte, 5)
//			c.RecvBytes(0, 0, buf)
//		}
//	})
//
// The underlying simulated hardware (NIC event mechanisms, DMA engines,
// fat-tree fabric, cost model) lives in internal packages; Config exposes
// the protocol choices the paper evaluates — RDMA read vs write
// rendezvous, inlined rendezvous data, chained completion events, shared
// completion queues, and polling vs interrupt vs threaded progress.
package qsmpi

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/model"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/ptltcp"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Scheme selects the long-message rendezvous protocol (paper §4.2).
type Scheme int

const (
	// RDMARead: the receiver pulls the message body and a single FIN_ACK
	// completes both sides — one control packet fewer (Fig. 4). Default.
	RDMARead Scheme = iota
	// RDMAWrite: the receiver ACKs with its memory descriptor and the
	// sender pushes, finishing with a FIN (Fig. 3).
	RDMAWrite
)

// CQMode selects local RDMA completion detection (paper §4.3, Fig. 6).
type CQMode int

const (
	// NoCQ polls a per-descriptor event (default, fastest under polling).
	NoCQ CQMode = iota
	// OneQueue chains completion QDMAs into the receive queue (enables
	// one-thread asynchronous progress).
	OneQueue
	// TwoQueue uses a dedicated completion queue (two-thread progress).
	TwoQueue
)

// ProgressMode selects how blocked calls make progress (paper §3, §6.4).
type ProgressMode int

const (
	// Polling spins on host event words. Default.
	Polling ProgressMode = iota
	// Interrupt blocks on NIC interrupts from the (single) Quadrics PTL;
	// measured by the paper only to isolate interrupt cost. Over the
	// Quadrics PTL, Run requires CQ OneQueue and EnableTCP off.
	Interrupt
	// Threaded uses asynchronous progress threads inside the PTL, one per
	// completion queue (CQ OneQueue or TwoQueue); ProgressThreads sets both.
	Threaded
)

// Config describes the simulated job.
type Config struct {
	// Procs is the number of MPI processes. Required.
	Procs int
	// Nodes is the number of cluster nodes (default: one per process;
	// processes beyond Nodes share nodes via additional NIC contexts).
	Nodes int

	// Scheme is the rendezvous protocol.
	Scheme Scheme
	// InlineRndv inlines eager-limit bytes with rendezvous fragments.
	// The paper's best configuration leaves this off (§6.1).
	InlineRndv bool
	// NoChainFin disables chaining the trailing FIN/FIN_ACK to the last
	// RDMA (the Fig. 8 "NoChain" ablation).
	NoChainFin bool
	// CQ selects the completion-queue strategy.
	CQ CQMode
	// Progress selects the progress mode.
	Progress ProgressMode
	// ProgressThreads spawns asynchronous progress threads, 1 or 2 (the
	// rows of the paper's Table 1); implies Progress Threaded and the
	// completion queue the threads need (OneQueue for 1, TwoQueue for 2).
	// Any other count, or a CQ naming the other queue, is an error from Run.
	ProgressThreads int
	// DatatypeEngine enables the general datatype copy engine; off uses
	// the generic-memcpy substitution of §6.1.
	DatatypeEngine bool
	// EagerLimit overrides the eager/rendezvous threshold (default 1984).
	EagerLimit int

	// HWBcast enables the hardware collectives while the world is static:
	// world Bcasts over QsNet's switch-replicated hardware broadcast and
	// world Barrier/Allreduce over NIC-resident combine trees (extensions
	// beyond the paper, which notes dynamic joiners preclude them; once
	// Spawn grows the world, the software trees take over automatically).
	HWBcast bool

	// DisableElan removes the Quadrics PTL (TCP-only runs).
	DisableElan bool
	// EnableTCP adds the TCP/IP PTL as an additional rail; the PML can
	// stripe one message across both networks.
	EnableTCP bool
	// TCPWeight is the TCP rail's scheduling weight (0: the default 0.1); a
	// negative, NaN or infinite weight is an error from Run.
	TCPWeight float64

	// Model overrides the calibrated hardware cost model (in-module use).
	Model *model.Config
}

// Validate reports why Run would refuse cfg before simulating anything, or
// nil (cluster.Spec.Validate holds the combination rules).
func (cfg Config) Validate() error {
	_, err := cfg.spec()
	return err
}

// spec translates the public Config into the cluster's and validates it.
// ProgressThreads picks its row of the paper's Table 1
// (cluster.Spec.WithProgressRow), which brings the completion queue the
// threads need; a CQ set explicitly must name that queue.
func (cfg Config) spec() (cluster.Spec, error) {
	if cfg.Procs < 1 {
		return cluster.Spec{}, fmt.Errorf("qsmpi: Config.Procs must be ≥ 1")
	}
	spec := cluster.Spec{
		Model:    cfg.Model,
		Nodes:    cfg.Nodes,
		DTP:      cfg.DatatypeEngine,
		Progress: pml.ProgressMode(cfg.Progress),
		HWColl:   cfg.HWBcast && !cfg.DisableElan,
	}
	if !cfg.DisableElan {
		spec.Elan = &ptlelan4.Options{
			Scheme:     ptlelan4.Scheme(cfg.Scheme),
			InlineRndv: cfg.InlineRndv,
			ChainFin:   !cfg.NoChainFin,
			CQ:         ptlelan4.CQMode(cfg.CQ),
			EagerLimit: cfg.EagerLimit,
		}
	}
	if cfg.ProgressThreads != 0 {
		var err error
		if spec, err = spec.WithProgressRow(strconv.Itoa(cfg.ProgressThreads)); err != nil {
			return spec, fmt.Errorf("qsmpi: Config.ProgressThreads: %w", err)
		}
		if cq := ptlelan4.CQMode(cfg.CQ); spec.Elan != nil && cfg.CQ != NoCQ && cq != spec.Elan.CQ {
			return spec, fmt.Errorf("qsmpi: Config.ProgressThreads %d runs on the %v completion queue, Config.CQ is %v", cfg.ProgressThreads, spec.Elan.CQ, cq)
		}
	}
	if cfg.EnableTCP || cfg.DisableElan {
		spec.TCP = &ptltcp.Options{Weight: cfg.TCPWeight}
	}
	return spec, spec.Validate()
}

// Re-exported communication types: the full MPI-ish surface lives on Comm.
type (
	// Comm is a communicator; see its Send/Recv/Isend/Irecv/Barrier/
	// Bcast/Reduce/Split methods.
	Comm = mpi.Comm
	// Request is a nonblocking operation handle.
	Request = mpi.Request
	// Status describes a completed receive.
	Status = mpi.Status
	// Datatype describes a (possibly non-contiguous) buffer layout.
	Datatype = datatype.Datatype
	// Op combines reduction contributions.
	Op = mpi.Op
	// Win is an MPI-2 one-sided communication window (Put/Get/Fence),
	// carried by the Quadrics RDMA engines with no target-side software.
	Win = mpi.Win
)

// Receive wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Field is one member of a Struct datatype.
type Field = datatype.Field

// Datatype constructors, re-exported.
var (
	Contiguous = datatype.Contiguous
	Vector     = datatype.Vector
	Indexed    = datatype.Indexed
	Struct     = datatype.Struct
)

// Reduction operators, re-exported.
var (
	OpSumF64 = mpi.OpSumF64
	OpMaxF64 = mpi.OpMaxF64
	OpSumI64 = mpi.OpSumI64
)

// Waitall completes a set of requests.
func Waitall(reqs ...*Request) { mpi.Waitall(reqs...) }

// Waitany blocks until one request completes, returning its index and
// status; the request then counts as completed, as after Wait. Nil
// entries are skipped, and with no non-nil request Waitany returns
// (-1, Status{}) at once.
func Waitany(reqs ...*Request) (int, Status) { return mpi.Waitany(reqs...) }

// jobState is shared across a Run's processes.
type jobState struct {
	c   *cluster.Cluster
	uni *mpi.Universe
	cfg Config
}

// World is one process's view of the job.
type World struct {
	mpiw *mpi.World
	proc *cluster.Proc
	job  *jobState

	spawnGen int
}

// Rank returns the process's world rank.
func (w *World) Rank() int { return w.mpiw.Rank() }

// Size returns the current world size (grows under Spawn).
func (w *World) Size() int { return w.mpiw.Size() }

// Comm returns the world communicator.
func (w *World) Comm() *Comm { return w.mpiw.Comm() }

// NowMicros returns the current virtual time in microseconds.
func (w *World) NowMicros() float64 { return w.proc.Th.Now().Micros() }

// Logf prints a line prefixed with the virtual time and rank.
func (w *World) Logf(format string, args ...any) {
	fmt.Fprintf(os.Stdout, "[%10.3fus rank %d] %s\n",
		w.NowMicros(), w.Rank(), fmt.Sprintf(format, args...))
}

// Sleep advances this process's virtual time (models local computation).
func (w *World) Sleep(micros float64) {
	w.proc.Th.Proc().Sleep(simtime.Micros(micros))
}

// Compute occupies a CPU for the given virtual microseconds.
func (w *World) Compute(micros float64) {
	w.proc.Th.Compute(simtime.Micros(micros))
}

// Finalize drains pending communication and retires this process's
// transport stack (PTL lifecycle stages four and five).
func (w *World) Finalize() {
	w.proc.Finalize()
}

// Go starts an additional application thread on this process's node,
// running fn with a World view bound to the new thread — the
// MPI_THREAD_MULTIPLE usage model. The returned wait function blocks the
// caller until fn returns. Collective calls must still follow MPI
// discipline (one globally ordered sequence per communicator across all
// of a process's threads).
func (w *World) Go(name string, fn func(tw *World)) (wait func()) {
	done := simtime.NewSignal()
	w.proc.Th.Host().Spawn(name, func(th *simtime.Thread) {
		tw := &World{
			mpiw:     w.mpiw.CloneForThread(th),
			proc:     &cluster.Proc{Rank: w.proc.Rank, Th: th, Stack: w.proc.Stack, Elan: w.proc.Elan, TCP: w.proc.TCP, RTE: w.proc.RTE},
			job:      w.job,
			spawnGen: w.spawnGen,
		}
		fn(tw)
		done.Fire()
	})
	return func() {
		done.Wait(w.proc.Th.Proc())
	}
}

// Spawn is MPI-2 dynamic process management: collectively create n new
// processes running childMain and admit them to the world communicator.
// Every current member must call Spawn; it returns once the grown world is
// fully connected. Children see a World whose Size already includes them.
// Requires a Quadrics-only configuration (the TCP PTL binds its node's
// Ethernet port exclusively).
func (w *World) Spawn(n int, childMain func(cw *World)) {
	if w.job.cfg.EnableTCP || w.job.cfg.DisableElan {
		panic("qsmpi: Spawn requires a Quadrics-only configuration")
	}
	// Dynamic spawn is shared-service traffic end to end (RTE joins, OOB
	// rendezvous), so a sharded run drops to the sequential phase first
	// and stays there.
	w.job.c.K.AwaitSequential(w.proc.Th.Proc())
	w.spawnGen++
	oldSize := w.mpiw.Size()
	newSize := oldSize + n
	tag := fmt.Sprintf("spawn-%d-%d", w.spawnGen, newSize)
	c := w.job.c

	// Children must align their world-communicator sequence counters with
	// the group's (collective discipline keeps these equal on every
	// parent, so rank 0's snapshot speaks for all).
	collSeq, splitSeq := w.mpiw.Comm().SyncState()
	// A child connects to every rank of the grown world, a parent to the children.
	all := make([]int, newSize)
	for i := range all {
		all[i] = i
	}
	if w.Rank() == 0 {
		for _, rank := range all[oldSize:] {
			node := rank % len(c.Hosts)
			job := w.job
			gen := w.spawnGen
			c.SpawnExtra(rank, node, cluster.ProcName(rank), func(p *cluster.Proc) {
				cw := &World{
					mpiw:     mpi.NewWorld(p.Th, p.Stack, job.uni, rank, newSize),
					proc:     p,
					job:      job,
					spawnGen: gen,
				}
				cw.mpiw.Comm().SetSyncState(collSeq, splitSeq)
				c.ConnectPeers(p, all)
				c.Registry.Rendezvous(p.Th, tag, newSize)
				childMain(cw)
			})
		}
	}
	c.ConnectPeers(w.proc, all[oldSize:])
	c.Registry.Rendezvous(w.proc.Th, tag, newSize)
	w.mpiw.GrowWorld(newSize)
}

// Run launches cfg.Procs processes executing main over a freshly built
// simulated cluster and runs the simulation to completion. It returns
// Validate's error, or an error if the simulation deadlocks.
func Run(cfg Config, main func(w *World)) error {
	_, err := run(cfg, main, nil, nil)
	return err
}

// RunTraced is Run with protocol tracing enabled on every process: it
// additionally returns the merged per-message timeline (see cmd/msgtrace
// for the format). limit caps the recorded events (0 = unlimited).
// RunTraced records the PML protocol view only; RunObserved records every
// layer.
func RunTraced(cfg Config, limit int, main func(w *World)) (string, error) {
	rec := trace.NewRecorder(limit)
	_, err := run(cfg, main, rec, nil)
	return rec.Render(), err
}

// Observation is the observability output of one RunObserved job.
type Observation struct {
	// Timeline is the merged cross-layer text timeline in virtual time.
	Timeline string
	// Perfetto is the event stream as Chrome trace-event JSON: load it at
	// ui.perfetto.dev (or chrome://tracing) for one track per rank×layer.
	Perfetto []byte
	// Metrics is the rendered layer/name/rank metrics table.
	Metrics string
	// Breakdown is the per-protocol-path phase decomposition table: every
	// message's end-to-end latency split into scheduling, DMA-queue, wire,
	// match, handshake and completion phases (obs.Analyze).
	Breakdown string
	// Flows is the per-(src,dst) flow accounting table.
	Flows string
	// Critical is the run's critical path of correlated messages.
	Critical string
}

// RunObserved is Run with full-stack observability: a cross-layer trace
// recorder and a metrics registry are attached to every layer of every
// process — NIC DMA engines, the fabric, the PTLs and the PML — and the
// collected timeline, Perfetto export and metrics table are returned.
// limit caps the recorded events (0 = unlimited).
func RunObserved(cfg Config, limit int, main func(w *World)) (Observation, error) {
	rec := trace.NewRecorder(limit)
	reg := obs.New()
	_, err := run(cfg, main, rec, reg)
	var buf bytes.Buffer
	if werr := obs.WritePerfettoFrom(&buf, rec); werr != nil && err == nil {
		err = werr
	}
	// The export above and the timeline below walk the recorder in place;
	// the analyzers index events by position, which takes the one copy.
	prof := obs.Analyze(rec.Events())
	return Observation{
		Timeline:  rec.Render(),
		Perfetto:  buf.Bytes(),
		Metrics:   reg.Snapshot().Render(),
		Breakdown: prof.RenderBreakdown(),
		Flows:     prof.RenderFlows(),
		Critical:  prof.RenderCritical(),
	}, err
}

// run builds and executes the job. With reg == nil, rec (if any) attaches
// to the PML stacks only — the original protocol timeline. With reg
// non-nil, both recorder and registry ride the Spec so the cluster wires
// every layer.
func run(cfg Config, main func(w *World), rec *trace.Recorder, reg *obs.Registry) (*cluster.Cluster, error) {
	spec, err := cfg.spec()
	if err != nil {
		return nil, err
	}
	if reg != nil {
		spec.Tracer = rec
		spec.Metrics = reg
	}
	c := cluster.New(spec, cfg.Procs)
	job := &jobState{c: c, uni: mpi.NewUniverse(), cfg: cfg}
	c.Launch(func(p *cluster.Proc) {
		if rec != nil && reg == nil {
			p.Stack.Tracer = rec
		}
		w := &World{
			mpiw: mpi.NewWorld(p.Th, p.Stack, job.uni, p.Rank, cfg.Procs),
			proc: p,
			job:  job,
		}
		if cfg.HWBcast && p.Elan != nil {
			w.mpiw.SetHWColl(p.Elan)
		}
		main(w)
	})
	return c, c.Run()
}
