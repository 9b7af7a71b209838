// Command overlapsmoke is the nightly shard-identity smoke for the
// overlap harness and the nonblocking-collective progress path: it
// measures the sender-side overlap ratio and the receiver-side
// progress-availability ratio at a rendezvous size for every progress
// mode, and prints each point's ratio and kernel event count. The
// output is a pure function of the flags (identity contract): `make
// overlap-smoke` byte-diffs a -shards 4 run against -shards 1 to prove
// the progress-hook machinery and duty-cycle accounting stay
// deterministic under the sharded conservative kernel.
//
//	overlapsmoke               # sequential kernel
//	overlapsmoke -shards 4     # same simulation over 4 PDES shards
//	overlapsmoke -size 16384   # cheaper message size
package main

import (
	"flag"
	"fmt"

	"qsmpi/internal/experiments"
)

func main() {
	size := flag.Int("size", 65536, "message size in bytes")
	shards := flag.Int("shards", 1, "worker shards (conservative parallel kernel; ≤1 = none, the whole run is sequential)")
	flag.Parse()
	for _, side := range []string{"send", "recv"} {
		for _, mode := range experiments.OverlapModes {
			ratio, events := experiments.OverlapPoint(mode, side, *size, *shards)
			fmt.Printf("%-5s %-12s %8d B  ratio %8.5f  %12d events\n",
				side, mode, *size, ratio, events)
		}
	}
}
