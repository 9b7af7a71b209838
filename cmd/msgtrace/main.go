// Command msgtrace runs a single message exchange and prints the merged
// cross-layer protocol timeline: request postings, matching, PTL control
// traffic, NIC DMA descriptors and fabric packets on both ranks, in
// virtual time. It makes the rendezvous protocols of Figs. 3 and 4
// directly observable.
//
// Usage:
//
//	msgtrace -size 100000 -scheme read
//	msgtrace -size 100000 -scheme write -inline
//	msgtrace -size 512                       # eager path
//	msgtrace -size 512 -unexpected           # eager into the unexpected queue
//	msgtrace -size 100000 -o trace.json      # open in ui.perfetto.dev
//	msgtrace -size 100000 -metrics           # cross-layer counter table
//	msgtrace -size 100000 -breakdown -flows  # phase decomposition + flow table
//	msgtrace -size 100000 -heatmap           # sampler heatmaps (rank×time, link×time)
//	msgtrace -size 512 -unexpected -waitstates  # wait-state attribution
//	msgtrace -layer pml,ptl -kind matched    # filter the timeline
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

var schemes = map[string]ptlelan4.Scheme{"read": ptlelan4.RDMARead, "write": ptlelan4.RDMAWrite}

// usage reports a flag value that names nothing and exits before anything
// is simulated.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "msgtrace: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	size := flag.Int("size", 100000, "message size in bytes")
	scheme := flag.String("scheme", "read", "rendezvous scheme: read | write")
	inline := flag.Bool("inline", false, "inline data with the rendezvous fragment")
	unexpected := flag.Bool("unexpected", false, "delay the receive posting so the message lands unexpected")
	out := flag.String("o", "", "write the timeline as Chrome trace-event JSON (Perfetto) to this file")
	metrics := flag.Bool("metrics", false, "print the cross-layer metrics table after the timeline")
	breakdown := flag.Bool("breakdown", false, "print the per-path phase decomposition and critical path")
	flows := flag.Bool("flows", false, "print the per-(src,dst) flow accounting table")
	heatmap := flag.Bool("heatmap", false, "attach the virtual-time sampler and print rank-by-time and link-by-time heatmaps")
	waitstates := flag.Bool("waitstates", false, "print the wait-state attribution report for the exchange")
	layers := flag.String("layer", "", "only show events of these layers (comma-separated: pml,ptl,elan4,fabric,tport,cluster)")
	kinds := flag.String("kind", "", "only show events of these kinds (comma-separated, e.g. matched,qdma-issued)")
	rank := flag.Int("rank", -1, "only show events of this rank (-1 = all)")
	flag.Parse()

	sch, ok := schemes[*scheme]
	if !ok {
		usage("-scheme %s names nothing (valid: read, write)", *scheme)
	}
	if *size < 0 {
		usage("-size %d is negative (valid: 0 or more bytes)", *size)
	}
	// The filter's names are checked on no events, so a bad -layer or
	// -kind stops the tool before the simulation, not after it.
	if _, err := trace.Filter(nil, *layers, *kinds, *rank); err != nil {
		usage("%v", err)
	}
	opts := ptlelan4.BestOptions(sch)
	opts.InlineRndv = *inline

	rec := trace.NewRecorder(0)
	spec := cluster.Spec{Elan: &opts, Progress: pml.Polling, Tracer: rec}
	var reg *obs.Registry
	if *metrics {
		reg = obs.New()
		spec.Metrics = reg
	}
	var smp *obs.Sampler
	if *heatmap {
		// A single exchange spans tens of microseconds, so sample densely
		// enough for the heatmap columns to resolve the protocol phases.
		smp = obs.NewSampler(2*simtime.Microsecond, 0)
		spec.Sampler = smp
	}
	c := cluster.New(spec, 2)
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(*size)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 0, 0, make([]byte, *size), dt).Wait(p.Th)
		} else {
			if *unexpected {
				// Arrive late: the message must traverse the unexpected
				// queue before this posting matches it.
				p.Th.Proc().Sleep(simtime.Micros(50))
			}
			buf := make([]byte, *size)
			p.Stack.Recv(p.Th, 0, 0, 0, buf, dt).Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("message of %d bytes, scheme %s, inline=%v, unexpected=%v:\n\n",
		*size, *scheme, *inline, *unexpected)
	events := rec.Events() // one copy serves the filter and both analyzers: none of them writes to it
	// The filter's names were checked before the run: it cannot fail here.
	evs, _ := trace.Filter(events, *layers, *kinds, *rank)
	fmt.Print(trace.RenderEvents(evs, rec.Dropped()))
	if *metrics {
		fmt.Printf("\n")
		fmt.Print(reg.Snapshot().Render())
	}
	if *breakdown || *flows {
		prof := obs.Analyze(events)
		if *breakdown {
			fmt.Printf("\n")
			fmt.Print(prof.RenderBreakdown())
			fmt.Printf("\n")
			fmt.Print(prof.RenderCritical())
		}
		if *flows {
			fmt.Printf("\n")
			fmt.Print(prof.RenderFlows())
		}
	}
	if *waitstates {
		fmt.Printf("\n")
		fmt.Print(obs.AnalyzeWaits(events).Render())
	}
	if smp != nil {
		fmt.Print("\n" + smp.Heatmaps(72))
	}
	if *out != "" {
		if err := obs.WritePerfettoFile(*out, rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d events to %s (load at ui.perfetto.dev)\n", rec.Len(), *out)
	}
}
