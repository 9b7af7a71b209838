// Command ompibench regenerates Fig. 10 of the paper: the overall latency
// and bandwidth of Open MPI over Quadrics/Elan4 (both rendezvous schemes,
// best options) against the MPICH-QsNetII baseline.
//
// Usage:
//
//	ompibench             # all four panels
//	ompibench -panel a    # one of a (small latency), b (large latency),
//	                      # c (small bandwidth), d (large bandwidth)
//	ompibench -j 8        # eight sweep workers (output identical at any -j)
package main

import (
	"flag"

	"qsmpi/internal/experiments"
)

func main() {
	// -panel is looked up in the experiments registry.
	flag.String("panel", "", "panel to regenerate (a, b, c, d; empty = all)")
	experiments.Tool("panel")
}
