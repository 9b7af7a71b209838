package main

import "fmt"

// layerValues holds per-layer metric values by name. A metric a workload
// does not exercise (NIC collectives on pingpong, the sweep engine anywhere
// but report) stays 0.
type layerValues map[string]float64

// phaseNames are obs.Analyze's phases, in its canonical order.
var phaseNames = []string{"sched", "dma-queue", "wire", "drain", "match", "handshake", "body-dma", "pull", "deliver", "fin-lag"}

// waitNames are obs.AnalyzeWaits's wait kinds, by WaitKind value.
var waitNames = []string{"late-sender", "late-receiver", "barrier", "nic-contention"}

// shareNames are the groups host CPU samples are attributed to: the
// simulator's packages, three parts of the Go runtime, and the rest.
var shareNames = []string{"simtime", "fabric", "elan4", "ptlelan4", "pml", "mpi", "cluster", "datatype", "bufpool", "trace", "obs", "rt_sched", "rt_gc", "rt_mem", "other"}

// perLayer declares every per-layer metric, in print order. None is gated;
// README.md says which end-to-end metric each should move, and where.
var perLayer = func() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, lower: true} }
	hi := func(name, unit string) metricDef { return metricDef{name: name, unit: unit} }
	defs := []metricDef{
		// Probes: tight loops on one layer's public functions (probes.go).
		lo("simtime.event_ns", "ns"),
		lo("simtime.event_deep_ns", "ns"),
		lo("simtime.handoff_ns", "ns"),
		lo("simtime.handoff_1024_ns", "ns"),
		lo("fabric.pkt_ns", "ns"),
		lo("fabric.events_per_pkt", "count"),
		lo("elan4.qdma_ns", "ns"),
		lo("elan4.events_per_qdma", "count"),
		lo("elan4.rdma_ns_per_kb", "ns/KB"),
		lo("pml.match_ns", "ns"),
		lo("pml.match_deep_ns", "ns"),
		lo("pml.unexpected_ns", "ns"),
		lo("datatype.pack_contig_ns_per_kb", "ns/KB"),
		lo("datatype.pack_vector_ns_per_kb", "ns/KB"),
		lo("bufpool.getput_ns", "ns"),
		lo("trace.record_ns", "ns"),
		lo("parsweep.job_overhead_ns", "ns"),
		// Counts and stage times of the untraced repetitions.
		lo("simtime.events", "count"),
		lo("simtime.ns_per_event", "ns"),
		lo("fabric.packets", "count"),
		lo("fabric.bytes", "count"),
		hi("fabric.route_hit_ratio", "ratio"),
		lo("elan4.qdmas", "count"),
		lo("elan4.rdmas", "count"),
		lo("elan4.chain_fires", "count"),
		lo("ptlelan4.eager_msgs", "count"),
		lo("ptlelan4.rndv_msgs", "count"),
		lo("ptlelan4.ctrl_msgs", "count"),
		lo("ptlelan4.eager_ns_per_msg", "ns"),
		lo("ptlelan4.rndv_ns_per_kb", "ns/KB"),
		lo("pml.msgs", "count"),
		lo("pml.unexpected_ratio", "ratio"),
		hi("pml.bucket_hit_ratio", "ratio"),
		hi("bufpool.hit_ratio", "ratio"),
		lo("mpi.host_coll_ms", "ms"),
		lo("mpi.nic_coll_ms", "ms"),
		lo("cluster.new_s", "s"),
		lo("cluster.bringup_s", "s"),
		lo("cluster.run_s", "s"),
		hi("simtime.sh2_speedup_x", "x"),
		lo("obs.sampler_overhead_x", "x"),
		lo("obs.analyze_s", "s"),
		lo("obs.waits_s", "s"),
		lo("obs.perfetto_s", "s"),
		lo("obs.heatmap_s", "s"),
		lo("parsweep.jobs", "count"),
		lo("parsweep.busy_s", "s"),
		hi("parsweep.efficiency", "ratio"),
		hi("experiments.claims_passed", "count"),
		// The traced repetition: the program's own Tracer hooks.
		lo("trace.events", "count"),
		lo("trace.overhead_x", "x"),
	}
	for _, p := range phaseNames {
		defs = append(defs, lo("sim.phase."+p+"_us", "us"))
	}
	defs = append(defs, lo("sim.phase.sum_us", "us"),
		lo("sim.fig9.qdma_us", "us"), lo("sim.fig9.ptl_us", "us"), lo("sim.fig9.pml_us", "us"))
	for _, w := range waitNames {
		defs = append(defs, lo("sim.wait."+w+"_us", "us"))
	}
	// The profiled repetition: flat CPU samples by group, summing to 1.
	for _, s := range shareNames {
		defs = append(defs, lo("host.share."+s, "share"))
	}
	return defs
}()

// declared indexes perLayer by name.
var declared = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range perLayer {
		m[d.name] = true
	}
	return m
}()

// set stores a value under a declared name; a name that is not in the
// table is a bug in the benchmark.
func (v layerValues) set(name string, x float64) {
	if !declared[name] {
		panic(fmt.Sprintf("bench: per-layer metric %q is not declared", name))
	}
	v[name] = x
}

// ratio is a/b, or 0 when the workload never exercised the denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers turns one untraced repetition's counters and stage times into
// per-layer values.
func (n *counts) layers(v layerValues, r *rep) {
	f := func(x int64) float64 { return float64(x) }
	v.set("simtime.events", f(n.events))
	v.set("simtime.ns_per_event", ratio(float64(r.wall.Nanoseconds()), f(n.events)))
	v.set("fabric.packets", f(n.packets))
	v.set("fabric.bytes", f(n.fabricBytes))
	v.set("fabric.route_hit_ratio", ratio(f(n.routeHits), f(n.routeHits+n.routeMisses)))
	v.set("elan4.qdmas", f(n.qdmas))
	v.set("elan4.rdmas", f(n.rdmas))
	v.set("elan4.chain_fires", f(n.chainFires))
	v.set("ptlelan4.eager_msgs", f(n.eagerMsgs))
	v.set("ptlelan4.rndv_msgs", f(n.rndvMsgs))
	v.set("ptlelan4.ctrl_msgs", f(n.ctrlMsgs))
	v.set("ptlelan4.eager_ns_per_msg", ratio(float64(n.eagerT.Nanoseconds()), f(n.eagerN)))
	v.set("ptlelan4.rndv_ns_per_kb", ratio(float64(n.rndvT.Nanoseconds()), f(n.rndvKB)))
	v.set("pml.msgs", f(n.msgs))
	v.set("pml.unexpected_ratio", ratio(f(n.unexpected), f(n.msgs)))
	v.set("pml.bucket_hit_ratio", ratio(f(n.bucketHits), f(n.msgs)))
	v.set("bufpool.hit_ratio", ratio(f(n.poolHits), f(n.poolGets)))
	v.set("mpi.host_coll_ms", ratio(n.hostCollT.Seconds()*1e3, f(n.hostColls)))
	v.set("mpi.nic_coll_ms", ratio(n.nicCollT.Seconds()*1e3, f(n.nicColls)))
	v.set("cluster.new_s", n.newT.Seconds())
	v.set("cluster.bringup_s", n.bringupT.Seconds())
	v.set("cluster.run_s", n.runT.Seconds())
	v.set("obs.analyze_s", n.analyzeT.Seconds())
	v.set("obs.waits_s", n.waitsT.Seconds())
	v.set("obs.perfetto_s", n.perfettoT.Seconds())
	v.set("obs.heatmap_s", n.heatT.Seconds())
	v.set("parsweep.jobs", f(n.sweepJobs))
	v.set("parsweep.busy_s", n.sweepBusy.Seconds())
	v.set("parsweep.efficiency", ratio(n.sweepBusy.Seconds(), n.sweepElapsed.Seconds()*float64(r.e.workers)))
	v.set("experiments.claims_passed", f(n.claimsPassed))
}
