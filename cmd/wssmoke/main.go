// Command wssmoke is the nightly shard-identity smoke for the
// wait-state pipeline: it prints the full wait-state attribution report
// over the seeded scenarios (late sender, late receiver, staggered
// barriers on host and NIC trees) followed by the sampler heatmaps of a
// mixed 8-rank workload. The output is a pure function of -shards
// identity: `make waitstate-smoke` byte-diffs a -shards 4 run against
// -shards 1 to prove the sampler ticks, the gauge snapshots and the
// classified waits are deterministic under the conservative PDES
// kernel.
//
//	wssmoke                # sequential kernel
//	wssmoke -shards 4      # same simulation over 4 PDES shards
package main

import (
	"flag"
	"fmt"

	"qsmpi/internal/experiments"
)

func main() {
	shards := flag.Int("shards", 1, "worker shards (conservative parallel kernel; ≤1 = none, the whole run is sequential)")
	flag.Parse()
	fmt.Print(experiments.WaitStateReport(*shards))
	fmt.Println()
	fmt.Print(experiments.HeatmapReport(8, 6, *shards, 72))
}
