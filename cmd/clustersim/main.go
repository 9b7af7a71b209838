// Command clustersim runs a traffic pattern over the simulated cluster
// and reports what the hardware did: per-NIC QDMA/RDMA counts, retries and
// interrupts, fabric totals, PML statistics and host CPU busy time, and the
// kernel's events and sleep wakes taken without a switch. It is the
// inspection tool for the testbed underneath the benchmarks.
//
// Usage:
//
//	clustersim -procs 8 -pattern alltoall -size 65536
//	clustersim -procs 4 -pattern ring -size 4096 -iters 100
//	clustersim -procs 2 -pattern pingpong -scheme write -threads 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/model"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/trace"
)

var (
	schemes  = map[string]ptlelan4.Scheme{"read": ptlelan4.RDMARead, "write": ptlelan4.RDMAWrite}
	patterns = []string{"pingpong", "ring", "alltoall"}
)

// usage reports a flag value that cannot be run and exits before anything
// is simulated.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "clustersim: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	procs := flag.Int("procs", 4, "number of MPI processes")
	pattern := flag.String("pattern", "alltoall", "pingpong | ring | alltoall")
	size := flag.Int("size", 4096, "message payload bytes")
	iters := flag.Int("iters", 10, "pattern repetitions")
	scheme := flag.String("scheme", "read", "rendezvous scheme: read | write")
	threads := flag.Int("threads", 0, "asynchronous progress threads (0, 1 or 2)")
	rails := flag.Int("rails", 1, "Quadrics rails")
	lossRate := flag.Float64("lossrate", 0, "per-packet CRC loss probability")
	traceOut := flag.String("trace", "", "write a cross-layer Chrome trace-event JSON (Perfetto) to this file")
	shards := flag.Int("shards", 1, "worker shards for the conservative parallel kernel (≤1 = none, the whole run is sequential)")
	metrics := flag.Bool("metrics", false, "print the unified metrics table after the summaries")
	flag.Parse()

	// Every flag is checked before anything is simulated: a value that
	// names nothing, or a spec that Validate refuses, exits 2.
	switch {
	case *procs < 1:
		usage("-procs %d names no process (valid: 1 or more)", *procs)
	case !slices.Contains(patterns, *pattern):
		usage("-pattern %s names nothing (valid: %s)", *pattern, strings.Join(patterns, ", "))
	case *pattern == "pingpong" && *procs < 2:
		usage("-pattern pingpong needs two processes, -procs is %d", *procs)
	case *size < 0:
		usage("-size %d is negative (valid: 0 or more bytes)", *size)
	case *iters < 1:
		usage("-iters %d runs no pattern (valid: 1 or more)", *iters)
	}
	sch, ok := schemes[*scheme]
	spec, err := specFor(sch, *threads, *rails, *shards, *lossRate)
	if err == nil {
		err = spec.Validate()
	}
	if !ok {
		err = fmt.Errorf("-scheme %s names nothing (valid: read, write)", *scheme)
	}
	if err != nil {
		usage("%v", err)
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(0)
		spec.Tracer = rec
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.New()
		spec.Metrics = reg
	}
	c := cluster.New(spec, *procs)
	var mods []*ptlelan4.Module
	var stacks []*pml.Stack
	c.Launch(func(p *cluster.Proc) {
		mods = append(mods, p.Elan)
		stacks = append(stacks, p.Stack)
		runPattern(p, *procs, *pattern, *size, *iters)
	})
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pattern=%s procs=%d size=%dB iters=%d scheme=%s threads=%d\n",
		*pattern, *procs, *size, *iters, *scheme, *threads)
	fmt.Printf("virtual time elapsed: %.1f us\n\n", c.Now().Micros())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "node\tQDMAs\tRDMA-wr\tRDMA-rd\tbytes\tretries\tirqs\tCPU-busy-us")
	for i, nic := range c.NICs {
		s := nic.Stats()
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
			i, s.QDMAs, s.RDMAWrites, s.RDMAReads, s.BytesSent, s.Retries,
			s.Interrupts, c.Hosts[i].BusyTime().Micros())
	}
	w.Flush()

	sent, delivered := c.Net.Stats()
	fmt.Printf("\nfabric: %d packets sent, %d delivered, %d CRC retransmits\n",
		sent, delivered, c.Net.Retransmits())
	fmt.Printf("kernel: %d steps, %d wakes in place, %d wakes drained, %d wakes scanned\n",
		c.K.Steps(), c.K.WakesInPlace(), c.K.WakesDrained(), c.K.WakesScanned())
	for i, m := range mods {
		s := m.Stats()
		fmt.Printf("rank %d PTL: eager=%d rndv=%d ack=%d fin=%d fin_ack=%d puts=%d gets=%d cq=%d\n",
			i, s.EagerTx, s.RndvTx, s.AckTx, s.FinTx, s.FinAckTx, s.PutOps, s.GetOps, s.CQRecords)
	}
	fmt.Println()
	for i, st := range stacks {
		s := st.Stats()
		fmt.Printf("rank %d PML match: attempts=%d bucket=%d wildcard=%d unexpected=%d unexp-highwater=%d reordered=%d\n",
			i, s.MatchAttempts, s.BucketHits, s.WildcardHits,
			s.UnexpectedMsgs, s.UnexpectedHighWater, s.ReorderedMsgs)
	}
	if reg != nil {
		fmt.Println()
		fmt.Print(reg.Snapshot().Render())
	}
	if rec != nil {
		if err := obs.WritePerfettoFile(*traceOut, rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d trace events to %s (load at ui.perfetto.dev)\n", rec.Len(), *traceOut)
	}
}

// specFor is the cluster the flags describe: the scheme's best options on
// rails Quadrics rails, under the Table 1 row of threads progress threads.
func specFor(sch ptlelan4.Scheme, threads, rails, shards int, lossRate float64) (cluster.Spec, error) {
	m := model.Default()
	m.LinkLossRate = lossRate
	opts := ptlelan4.BestOptions(sch)
	return cluster.Spec{Elan: &opts, ElanRails: rails, Model: &m, Shards: shards}.WithProgressRow(strconv.Itoa(threads))
}

func runPattern(p *cluster.Proc, procs int, pattern string, size, iters int) {
	dt := datatype.Contiguous(size)
	buf := make([]byte, size)
	scratch := make([]byte, size)
	switch pattern {
	case "pingpong":
		if p.Rank > 1 {
			return
		}
		for i := 0; i < iters; i++ {
			if p.Rank == 0 {
				p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
				p.Stack.Recv(p.Th, 1, 2, 0, scratch, dt).Wait(p.Th)
			} else {
				p.Stack.Recv(p.Th, 0, 1, 0, scratch, dt).Wait(p.Th)
				p.Stack.Send(p.Th, 0, 2, 0, buf, dt).Wait(p.Th)
			}
		}
	case "ring":
		next := (p.Rank + 1) % procs
		prev := (p.Rank - 1 + procs) % procs
		for i := 0; i < iters; i++ {
			r := p.Stack.Recv(p.Th, prev, i, 0, scratch, dt)
			p.Stack.Send(p.Th, next, i, 0, buf, dt).Wait(p.Th)
			r.Wait(p.Th)
		}
	case "alltoall":
		for i := 0; i < iters; i++ {
			var sends []*pml.SendReq
			var recvs []*pml.RecvReq
			for peer := 0; peer < procs; peer++ {
				if peer == p.Rank {
					continue
				}
				recvs = append(recvs, p.Stack.Recv(p.Th, peer, i, 0, make([]byte, size), dt))
				sends = append(sends, p.Stack.Send(p.Th, peer, i, 0, buf, dt))
			}
			for _, r := range recvs {
				r.Wait(p.Th)
			}
			for _, s := range sends {
				s.Wait(p.Th)
			}
		}
	}
}
