// Command collsmoke is the nightly shard-identity smoke for the
// collective stack at scale: it runs a barrier, an 8-byte broadcast and
// an 8-byte allreduce over a 1024-rank cluster with the NIC combine
// trees installed, and prints each operation's simulated latency and
// kernel event count. The output is a pure function of (-procs, -shards
// identity contract): `make coll-shards` byte-diffs a -shards 4 run
// against -shards 1 to prove the sharded conservative kernel leaves the
// NIC-resident chain callbacks deterministic.
//
//	collsmoke                      # 1024 ranks, sequential kernel
//	collsmoke -shards 4            # same simulation over 4 PDES shards
//	collsmoke -procs 256           # cheaper rank count
package main

import (
	"flag"
	"fmt"

	"qsmpi/internal/experiments"
)

func main() {
	procs := flag.Int("procs", 1024, "cluster size in ranks")
	shards := flag.Int("shards", 1, "worker shards (conservative parallel kernel; ≤1 = none, the whole run is sequential)")
	flag.Parse()
	for _, op := range experiments.CollSmokeOps {
		lat, events := experiments.CollSmoke(*procs, op, *shards)
		fmt.Printf("%-10s %6d ranks  %10.3f us  %12d events\n", op, *procs, lat, events)
	}
}
