// Package mpichq is a thin MPI-style layer over the Tport emulation,
// standing in for MPICH-QsNetII: the default, statically-connected MPI on
// Quadrics that the paper benchmarks against in Fig. 10. It provides just
// the point-to-point surface the comparison needs; there is no dynamic
// process management — the process pool is fixed at job launch, which is
// precisely the limitation the paper's PTL design removes.
package mpichq

import (
	"fmt"

	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/model"
	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
	"qsmpi/internal/tport"
	"qsmpi/internal/trace"
)

// emptyResolver: MPICH-QsNetII does not route through the RTE — tport
// addressing is static — but the NIC model wants a resolver for its
// standard QDMA path, which this job never exercises.
type emptyResolver struct{}

func (emptyResolver) Resolve(int) (int, int, bool) { return 0, 0, false }

// Job is a statically-launched MPICH-QsNetII run.
type Job struct {
	K     *simtime.Kernel
	Cfg   model.Config
	Net   *fabric.Network
	Hosts []*simtime.Host
	NICs  []*elan4.NIC
	Eps   []*tport.Endpoint

	nprocs int
}

// NewJob builds the cluster and one Tport endpoint per rank (rank i on
// node i — the static VPID=rank coupling).
func NewJob(nprocs int) *Job {
	cfg := model.Default()
	k := simtime.NewKernel()
	j := &Job{K: k, Cfg: cfg, nprocs: nprocs}
	j.Net = fabric.New(k, cfg.QuadricsFabric(), nprocs)
	ports := make([]int, nprocs)
	for i := range ports {
		ports[i] = i
	}
	for i := 0; i < nprocs; i++ {
		h := simtime.NewHost(k, fmt.Sprintf("node%d", i), cfg.HostCPUs)
		nic := elan4.NewNIC(k, h, j.Net, i, cfg, emptyResolver{})
		j.Hosts = append(j.Hosts, h)
		j.NICs = append(j.NICs, nic)
		j.Eps = append(j.Eps, tport.New(k, h, nic, cfg, i, ports))
	}
	return j
}

// SetTracer attaches a cross-layer event recorder to every endpoint, NIC
// and the fabric — the MPICH-QsNetII counterpart of cluster.Spec.Tracer.
func (j *Job) SetTracer(rec *trace.Recorder) {
	j.Net.SetTracer(rec)
	for _, nic := range j.NICs {
		nic.SetTracer(rec)
	}
	for _, ep := range j.Eps {
		ep.SetTracer(rec)
	}
}

// RegisterMetrics installs collectors for the tport layer (and the
// underlying NICs and fabric) into r, mirroring cluster.RegisterMetrics
// for the MPICH-QsNetII baseline stack.
func (j *Job) RegisterMetrics(r *obs.Registry) {
	r.Collect(func(emit obs.EmitFn) {
		for rank, ep := range j.Eps {
			st := ep.Stats()
			emit("tport", "nic_matches", rank, float64(st.NICMatches))
			emit("tport", "unexpected", rank, float64(st.Unexpected))
			emit("tport", "eager_tx", rank, float64(st.EagerTx))
			emit("tport", "rndv_tx", rank, float64(st.RndvTx))
			emit("tport", "pull_chunks", rank, float64(st.PullChunks))
		}
		for node, nic := range j.NICs {
			st := nic.Stats()
			emit("elan4", "qdmas", node, float64(st.QDMAs))
			emit("elan4", "rdma_reads", node, float64(st.RDMAReads))
			emit("elan4", "dma_completed", node, float64(st.DMACompleted))
			emit("elan4", "bytes_sent", node, float64(st.BytesSent))
		}
		sent, delivered := j.Net.Stats()
		emit("fabric", "pkts_sent", -1, float64(sent))
		emit("fabric", "pkts_delivered", -1, float64(delivered))
		emit("fabric", "payload_bytes", -1, float64(j.Net.BytesSent()))
	})
}

// Comm is the per-rank communication handle.
type Comm struct {
	ep   *tport.Endpoint
	size int
}

// Rank returns the calling process's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the job size.
func (c *Comm) Size() int { return c.size }

// Send is a blocking tagged send.
func (c *Comm) Send(th *simtime.Thread, dst, tag int, data []byte) {
	c.ep.Send(th, dst, tag, data)
}

// Recv is a blocking tagged receive returning the message length.
func (c *Comm) Recv(th *simtime.Thread, src, tag int, buf []byte) int {
	return c.ep.Recv(th, src, tag, buf)
}

// Isend starts a nonblocking send.
func (c *Comm) Isend(th *simtime.Thread, dst, tag int, data []byte) *tport.SendHandle {
	return c.ep.Isend(th, dst, tag, data)
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(th *simtime.Thread, src, tag int, buf []byte) *tport.RecvHandle {
	return c.ep.Irecv(th, src, tag, buf)
}

// Launch spawns main for every rank.
func (j *Job) Launch(main func(rank int, th *simtime.Thread, c *Comm)) {
	for r := 0; r < j.nprocs; r++ {
		r := r
		j.Hosts[r].Spawn(fmt.Sprintf("rank%d", r), func(th *simtime.Thread) {
			main(r, th, &Comm{ep: j.Eps[r], size: j.nprocs})
		})
	}
}

// Run executes to quiescence, reporting deadlocks, and closes the job's
// kernel.
func (j *Job) Run() error {
	defer j.K.Close()
	j.K.Run()
	if st := j.K.Stalled(); len(st) != 0 {
		return fmt.Errorf("mpichq: deadlock, stalled: %v", st)
	}
	return nil
}
