package cluster_test

import (
	"math"
	"strings"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/model"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptl"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/ptltcp"
)

// TestSpecValidate is every combination rule of Spec.Validate, one table:
// the specs the simulator's own code builds, and the combinations that run
// correctly on their own, validate clean; each refused spec names the rule
// that refuses it, and its comment says what the spec did before Validate
// existed.
func TestSpecValidate(t *testing.T) {
	with := func(edit func(s *cluster.Spec)) cluster.Spec {
		s := elanSpec()
		edit(&s)
		return s
	}
	row := func(name string, edit func(s *cluster.Spec)) cluster.Spec {
		s, err := elanSpec().WithProgressRow(name)
		if err != nil {
			t.Fatal(err)
		}
		edit(&s)
		return s
	}
	same := func(*cluster.Spec) {}
	loss := func(rate float64) *model.Config {
		m := model.Default()
		m.LinkLossRate = rate
		return &m
	}
	tcp := func() *ptltcp.Options { return &ptltcp.Options{Weight: 0.1} }
	slot := model.Default().QDMAMaxPayload - ptl.HeaderSize

	for _, tc := range []struct {
		name string
		spec cluster.Spec
		want string // "" validates clean
	}{
		// What the simulator builds: experiments' bestRead and both
		// BestOptions, the four Table 1 rows, the tools' rails, transports,
		// HWColl, worker shards and lossy links, the queue-depth ablation.
		{"bestRead", elanSpec(), ""},
		{"BestOptions(RDMAWrite)", with(func(s *cluster.Spec) { o := ptlelan4.BestOptions(ptlelan4.RDMAWrite); s.Elan = &o }), ""},
		{"row basic", row("basic", same), ""},
		{"row interrupt", row("interrupt", same), ""},
		{"row one-thread", row("one-thread", same), ""},
		{"row two-threads", row("two-threads", same), ""},
		{"two rails", with(func(s *cluster.Spec) { s.ElanRails = 2 }), ""},
		{"TCP alone", cluster.Spec{TCP: tcp(), Progress: pml.Polling}, ""},
		{"Elan and TCP", with(func(s *cluster.Spec) { s.TCP = tcp() }), ""},
		{"HWColl", with(func(s *cluster.Spec) { s.HWColl = true }), ""},
		{"Shards 2", with(func(s *cluster.Spec) { s.Shards = 2 }), ""},
		{"lossy link", with(func(s *cluster.Spec) { s.Model = loss(0.05) }), ""},
		{"queue-depth ablation", with(func(s *cluster.Spec) { m := model.Default(); m.QueueSlots = 2; s.Model = &m }), ""},
		{"eager limit the whole slot", with(func(s *cluster.Spec) { s.Elan.EagerLimit = slot }), ""},
		{"TCP weight 0 (the default)", with(func(s *cluster.Spec) { s.TCP = &ptltcp.Options{} }), ""},
		// Combinations that run correctly and stay allowed.
		{"interrupt over TCP alone", cluster.Spec{TCP: tcp(), Progress: pml.InterruptWait}, ""},
		{"one thread on two rails", row("one-thread", func(s *cluster.Spec) { s.ElanRails = 2 }), ""},
		{"one thread beside TCP", row("one-thread", func(s *cluster.Spec) { s.TCP = tcp() }), ""},

		// panicked: "pml: 1 peers added with no modules".
		{"no transport", cluster.Spec{Progress: pml.Polling}, "no transport"},
		// panicked: "fabric: need at least one port".
		{"negative nodes", with(func(s *cluster.Spec) { s.Nodes = -1 }), "-1 nodes"},
		// ran as one rail: clustersim -rails -1 exited 0.
		{"negative rails", with(func(s *cluster.Spec) { s.ElanRails = -1 }), "Elan rails"},
		// panicked: "ptlelan4: eager limit exceeds QDMA slot capacity".
		{"eager limit past the slot", with(func(s *cluster.Spec) { s.Elan.EagerLimit = slot + 1 }), "eager limit"},
		// ran without complaint.
		{"negative eager limit", with(func(s *cluster.Spec) { s.Elan.EagerLimit = -5 }), "eager limit"},
		// ran as the read scheme: Matched tests for the write scheme alone.
		{"Elan scheme 5", with(func(s *cluster.Spec) { s.Elan.Scheme = 5 }), "Elan scheme"},
		// ran as OneQueue, and under threaded progress with seven threads.
		{"completion queue 7", with(func(s *cluster.Spec) { s.Elan.CQ = 7 }), "completion queue"},
		// ran as polling: neither the interrupt nor the threaded mode.
		{"progress mode 9", with(func(s *cluster.Spec) { s.Progress = 9 }), "progress mode"},
		// ran: the weights summed to 0, Elan's share of a write-scheme
		// remainder came out negative and TCP carried all of it.
		{"TCP weight -1", with(func(s *cluster.Spec) { s.Elan.Scheme, s.TCP = ptlelan4.RDMAWrite, &ptltcp.Options{Weight: -1} }), "TCP weight"},
		// ran: Elan's share came out NaN and TCP carried the remainder.
		{"TCP weight NaN", with(func(s *cluster.Spec) { s.TCP = &ptltcp.Options{Weight: math.NaN()} }), "TCP weight"},
		// ran: Elan's share came out 0 and TCP carried the remainder.
		{"TCP weight +Inf", with(func(s *cluster.Spec) { s.TCP = &ptltcp.Options{Weight: math.Inf(1)} }), "TCP weight"},
		// ran, every packet retransmitted 99 times (the fabric's cap).
		{"loss rate 1.5", with(func(s *cluster.Spec) { s.Model = loss(1.5) }), "link loss rate"},
		// ran, every packet retransmitted 99 times.
		{"loss rate 1", with(func(s *cluster.Spec) { s.Model = loss(1) }), "link loss rate"},
		// ran as a lossless link: clustersim -lossrate -1 exited 0.
		{"negative loss rate", with(func(s *cluster.Spec) { s.Model = loss(-1) }), "link loss rate"},
		// panicked: "fabric: LossRate > 0 is incompatible with a sharded kernel".
		{"shards on a lossy link", with(func(s *cluster.Spec) { s.Model, s.Shards = loss(0.05), 2 }), "worker shards"},
		// panicked: "cluster: HWColl requires the Elan transport".
		{"HWColl over TCP alone", cluster.Spec{TCP: tcp(), Progress: pml.Polling, HWColl: true}, "HWColl"},
		// completed in every two- and four-rank probe, but only while rail
		// 0's wake outlasts the skew between the rails: the block listens
		// to rail 0's receive queue alone.
		{"interrupt on two rails", row("interrupt", func(s *cluster.Spec) { s.ElanRails = 2 }), "interrupt progress"},
		// deadlocked on a 4 KB RDMA-write rendezvous: the TCP PTL's
		// traffic never raises the Elan queue's interrupt.
		{"interrupt beside TCP", row("interrupt", func(s *cluster.Spec) { s.Elan.Scheme, s.TCP = ptlelan4.RDMAWrite, tcp() }), "interrupt progress"},
		// deadlocked on a 4 KB rendezvous: NoCQ completions never reach
		// the receive queue.
		{"interrupt on NoCQ", row("interrupt", func(s *cluster.Spec) { s.Elan.CQ = ptlelan4.NoCQ }), "interrupt progress"},
		// deadlocked on a 64 KB rendezvous: completions land in the
		// separate queue.
		{"interrupt on TwoQueue", row("interrupt", func(s *cluster.Spec) { s.Elan.CQ = ptlelan4.TwoQueue }), "interrupt progress"},
		// deadlocked: no PTL runs a progress thread.
		{"threaded over TCP alone", cluster.Spec{TCP: tcp(), Progress: pml.Threaded}, "threaded progress"},
		// deadlocked: NoCQ has no completion queue for a thread to serve.
		{"threaded on NoCQ", with(func(s *cluster.Spec) { s.Progress = pml.Threaded }), "threaded progress"},
	} {
		err := tc.spec.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate = %v, want the %q rule", tc.name, err, tc.want)
		}
	}
}
