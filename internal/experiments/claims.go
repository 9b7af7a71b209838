package experiments

import (
	"fmt"
	"slices"

	"qsmpi/internal/parsweep"
)

// at returns the value a series reports for a message size.
func at(s Series, size int) float64 {
	for _, p := range s.Points {
		if p.Size == size {
			return p.Value
		}
	}
	panic(fmt.Sprintf("experiments: size %d not in series %q", size, s.Name))
}

// byName selects a series from a result.
func byName(r *Result, name string) Series {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	panic("experiments: series not found: " + name)
}

// Claim is one checkable statement from the paper's evaluation.
type Claim struct {
	ID       string
	Paper    string // the claim as the paper states it
	Measured string // the values the verdict read
	Pass     bool   // the verdict
}

// point names one x of one series of a registry figure.
type point struct {
	fig, series string
	x           int
}

// claim is one row of the paper's claims: its ID, the paper's words, the
// figure points it reads and the verdict over their values, in the order
// the points are named.
type claim struct {
	id, paper string
	points    []point
	verdict   func(v []float64) (measured string, pass bool)
}

// paperClaims are the qualitative claims of §6, in paper order.
var paperClaims = []claim{
	{"fig7-dtp", "the datatype component introduces an overhead of about 0.4us",
		[]point{{"fig7a", "Read-DTP", 4}, {"fig7a", "RDMA-Read", 4}},
		func(v []float64) (string, bool) {
			d := v[0] - v[1]
			return fmt.Sprintf("+%.2fus at 4B", d), d > 0.25 && d < 0.6
		}},
	{"fig7-read-vs-write", "RDMA read delivers better performance than RDMA write (saves a control packet)",
		[]point{{"fig7b", "RDMA-Read", 4096}, {"fig7b", "RDMA-Write", 4096}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("read %.2fus vs write %.2fus at 4KB", v[0], v[1]), v[0] < v[1]
		}},
	{"fig7-noinline", "transmitting the rendezvous packet without inlined data improves performance",
		[]point{{"fig7b", "Read-NoInline", 4096}, {"fig7b", "RDMA-Read", 4096}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("no-inline %.2fus vs inline %.2fus at 4KB", v[0], v[1]), v[0] < v[1]
		}},
	{"fig8-chained", "chained DMA for fast completion notification provides marginal improvements for long messages",
		[]point{{"fig8", "RDMA-Read", 16384}, {"fig8", "Read-NoChain", 16384}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("chained %.2fus vs host-issued %.2fus at 16KB", v[0], v[1]), v[0] < v[1] && v[1]-v[0] < 2.0
		}},
	{"fig8-cq-cost", "the shared completion queue support does bring performance impacts (extra QDMA per RDMA)",
		[]point{{"fig8", "One-Queue", 4096}, {"fig8", "Two-Queue", 4096}, {"fig8", "RDMA-Read", 4096}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("one-queue %.2fus, two-queue %.2fus vs %.2fus at 4KB", v[0], v[1], v[2]), v[0] > v[2] && v[1] > v[2]
		}},
	{"fig8-one-vs-two", "checking two eight-byte host-events costs about the same as checking one (polling)",
		[]point{{"fig8", "Two-Queue", 4096}, {"fig8", "One-Queue", 4096}},
		func(v []float64) (string, bool) {
			d := v[0] - v[1]
			return fmt.Sprintf("|two-one| = %.2fus", d), d >= 0 && d < 0.5
		}},
	{"fig9-pml-cost", "the PML layer and above has a communication cost of 0.5us",
		[]point{{"fig9", "PML Layer Cost", 0}},
		func(v []float64) (string, bool) { return fmt.Sprintf("%.2fus at 0B", v[0]), v[0] > 0.3 && v[0] < 0.8 }},
	{"fig9-ptl-vs-qdma", "PTL/Elan4 delivers performance comparable to native QDMA carrying N+64 bytes",
		[]point{{"fig9", "PTL Latency", 0}, {"fig9", "QDMA latency", 64}},
		func(v []float64) (string, bool) {
			d := v[0] - v[1]
			return fmt.Sprintf("PTL(0B) %.2fus vs QDMA(64B) %.2fus", v[0], v[1]), d > -0.3 && d < 0.6
		}},
	{"table1-interrupt", "about 10us due to the interrupt",
		[]point{{"table1", "Interrupt", 4}, {"table1", "Basic", 4}},
		func(v []float64) (string, bool) {
			d := v[0] - v[1]
			return fmt.Sprintf("+%.2fus", d), d > 8 && d < 14
		}},
	{"table1-one-thread", "one-thread-based asynchronous progress is more efficient than two threads",
		[]point{{"table1", "One Thread", 4}, {"table1", "Two Threads", 4}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("one %.2fus vs two %.2fus", v[0], v[1]), v[0] < v[1]
		}},
	{"fig10-small-latency", "latency slightly lower but comparable to MPICH-QsNetII, except small messages (header + NIC matching)",
		[]point{{"fig10a-latency", "MPICH-QsNetII", 0}, {"fig10a-latency", "PTL/Elan4-RDMA-Read", 0}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("MPICH %.2fus vs Open MPI %.2fus at 0B", v[0], v[1]), v[0] < v[1] && v[1]-v[0] < 2.0
		}},
	{"fig10-midrange-bw", "our implementation performs worse in the middle range of messages (Tport pipelines)",
		[]point{{"fig10d-bandwidth", "MPICH-QsNetII", 16384}, {"fig10d-bandwidth", "PTL/Elan4-RDMA-Read", 16384}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("MPICH %.0f vs Open MPI %.0f MB/s at 16KB", v[0], v[1]), v[0] > v[1]
		}},
	{"fig10-asymptote", "comparable performance at large messages",
		[]point{{"fig10d-bandwidth", "MPICH-QsNetII", 1 << 20}, {"fig10d-bandwidth", "PTL/Elan4-RDMA-Read", 1 << 20}},
		func(v []float64) (string, bool) {
			return fmt.Sprintf("MPICH %.0f vs Open MPI %.0f MB/s at 1MB", v[0], v[1]), v[1]/v[0] > 0.97
		}},
}

// Claims measures every qualitative claim of §6 and returns the verdicts.
// Reduce cfg.Iters to trade accuracy for time. A claim reads points of the
// registry's figures: each distinct point is one simulation, and they fan
// out over cfg.Workers together; the verdicts are assembled afterwards in
// table order, so the output is identical at any parallelism.
func Claims(cfg Config) []Claim {
	jobs, refs := claimJobs(cfg)
	rows := fanOut(cfg, len(jobs), func(i int) ([]float64, parsweep.Metrics) { return jobs[i].c.run(jobs[i].x) })
	got := map[job][]float64{}
	for i, j := range jobs {
		got[j] = rows[i]
	}
	out := make([]Claim, len(paperClaims))
	for i, c := range paperClaims {
		v := make([]float64, len(refs[i]))
		for n, r := range refs[i] {
			v[n] = got[r.job][r.k]
		}
		out[i] = Claim{ID: c.id, Paper: c.paper}
		out[i].Measured, out[i].Pass = c.verdict(v)
	}
	return out
}

// job is one simulation a claim reads: a figure's curve at one x.
type job struct {
	c *curve
	x int
}

// ref is where a claim reads one of its points: a job and the series within
// the job's curve.
type ref struct {
	job
	k int
}

// claimJobs resolves every claim's points to their registry figure's
// curves. It returns the distinct jobs in the order they run and, per
// claim, where each of its points is read.
func claimJobs(cfg Config) ([]job, [][]ref) {
	plots := map[string]plot{}
	for _, f := range registry {
		plots[f.id] = f.plot(cfg)
	}
	var jobs []job
	refs := make([][]ref, len(paperClaims))
	for i, c := range paperClaims {
		for _, pt := range c.points {
			p := plots[pt.fig]
			r := ref{k: -1}
			for ci := range p.curves {
				if k := slices.Index(p.curves[ci].names, pt.series); k >= 0 {
					r = ref{job{&p.curves[ci], pt.x}, k}
				}
			}
			if r.k < 0 || !slices.Contains(p.xs, pt.x) {
				panic(fmt.Sprintf("experiments: %s has no point %q at %d", pt.fig, pt.series, pt.x))
			}
			if !slices.Contains(jobs, r.job) {
				jobs = append(jobs, r.job)
			}
			refs[i] = append(refs[i], r)
		}
	}
	// The two 1 MB ping-pongs (4 MB live each) must never run at once
	// (DESIGN.md §7): the first, Tport's, runs first, and Open MPI's stays
	// last.
	h := slices.IndexFunc(jobs, func(j job) bool { return j.x == 1<<20 })
	huge := jobs[h]
	return append([]job{huge}, slices.Delete(jobs, h, h+1)...), refs
}
