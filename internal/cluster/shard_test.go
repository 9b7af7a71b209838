package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"qsmpi/internal/datatype"
	"qsmpi/internal/model"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
)

// shardSignature runs a traffic pattern on a cluster with the given shard
// count and renders everything observable about the run — final virtual
// time, per-NIC hardware counters, fabric totals, per-rank PML and PTL
// statistics, host busy time — into one string. The sharded determinism
// gate requires the signature to be byte-identical at every shard count;
// shards == 0 adds no worker: the whole run is the sequential phase.
func shardSignature(t *testing.T, shards, procs, size, iters int, pattern string) string {
	t.Helper()
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	spec := Spec{Elan: &opts, Progress: pml.Polling, Shards: shards}
	c := New(spec, procs)
	var mods []*ptlelan4.Module
	var stacks []*pml.Stack
	c.Launch(func(p *Proc) {
		mods = append(mods, p.Elan)
		stacks = append(stacks, p.Stack)
		runTestPattern(p, procs, pattern, size, iters)
		p.Finalize()
	})
	if err := c.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "now=%v steps=%d\n", c.Now(), c.K.Steps())
	for i, nic := range c.NICs {
		s := nic.Stats()
		fmt.Fprintf(&b, "nic%d qdma=%d wr=%d rd=%d dma=%d chain=%d bytes=%d retry=%d irq=%d busy=%v\n",
			i, s.QDMAs, s.RDMAWrites, s.RDMAReads, s.DMACompleted, s.ChainFires,
			s.BytesSent, s.Retries, s.Interrupts, c.Hosts[i].BusyTime())
	}
	sent, delivered := c.Net.Stats()
	fmt.Fprintf(&b, "fabric sent=%d delivered=%d bytes=%d retx=%d\n",
		sent, delivered, c.Net.BytesSent(), c.Net.Retransmits())
	for i, m := range mods {
		s := m.Stats()
		fmt.Fprintf(&b, "ptl%d eager=%d rndv=%d ack=%d fin=%d finack=%d put=%d get=%d cq=%d\n",
			i, s.EagerTx, s.RndvTx, s.AckTx, s.FinTx, s.FinAckTx, s.PutOps, s.GetOps, s.CQRecords)
	}
	for i, st := range stacks {
		s := st.Stats()
		fmt.Fprintf(&b, "pml%d sends=%d recvs=%d eager=%d rndv=%d unexp=%d hw=%d reord=%d match=%d\n",
			i, s.Sends, s.Recvs, s.EagerSends, s.RndvSends,
			s.UnexpectedMsgs, s.UnexpectedHighWater, s.ReorderedMsgs, s.MatchAttempts)
	}
	return b.String()
}

func runTestPattern(p *Proc, procs int, pattern string, size, iters int) {
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
	default:
		panic("unknown pattern " + pattern)
	}
}

// TestShardedClusterIdentity is the tentpole gate: the full stack (PML,
// PTL/Elan4, NIC, fabric) must produce byte-identical observable output at
// shard counts 0 (no worker shards), 2 and 4, for traffic patterns and
// message sizes spanning the eager and rendezvous protocols. These
// patterns never have two sources contending for one link at the same
// instant, so the canonical (time, source, sequence) cross-shard order
// coincides with the sequential engine's history order — the condition
// under which shards-vs-sequential identity is guaranteed (see
// DESIGN.md §7.2: the golden workloads and the report's two-rank points
// are in this class; the report's host-tree barrier from 1024 ranks up
// and its NIC barrier at 4096 are not, and fall under
// TestShardedSelfIdentity's contract instead).
func TestShardedClusterIdentity(t *testing.T) {
	cases := []struct {
		pattern     string
		procs, size int
		iters       int
	}{
		{"pingpong", 2, 1024, 8},
		{"pingpong", 2, 1 << 17, 4},
		{"ring", 8, 4096, 6},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s-p%d-s%d", tc.pattern, tc.procs, tc.size), func(t *testing.T) {
			base := shardSignature(t, 0, tc.procs, tc.size, tc.iters, tc.pattern)
			for _, shards := range []int{2, 4} {
				got := shardSignature(t, shards, tc.procs, tc.size, tc.iters, tc.pattern)
				if got != base {
					t.Errorf("shards=%d diverges from sequential run:\n--- shards=0\n%s\n--- shards=%d\n%s",
						shards, base, shards, got)
				}
			}
		})
	}
}

// TestShardedSelfIdentity pins the parallel engine's own determinism on a
// contention-heavy workload: all-to-all saturates shared switch links with
// same-instant traffic from every source, where the canonical cross-shard
// order is the defined semantics (the sequential engine breaks such ties
// by scheduling history instead, so shards ≥ 2 are compared only to each
// other). Any shard count ≥ 2 must produce byte-identical output.
func TestShardedSelfIdentity(t *testing.T) {
	cases := []struct {
		procs, size, iters int
	}{
		{8, 2048, 3},
		{6, 1 << 16, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("alltoall-p%d-s%d", tc.procs, tc.size), func(t *testing.T) {
			base := shardSignature(t, 2, tc.procs, tc.size, tc.iters, "alltoall")
			for _, shards := range []int{3, 4, 8} {
				got := shardSignature(t, shards, tc.procs, tc.size, tc.iters, "alltoall")
				if got != base {
					t.Errorf("shards=%d diverges from shards=2:\n--- shards=2\n%s\n--- shards=%d\n%s",
						shards, base, shards, got)
				}
			}
		})
	}
}

// TestShardsRefuseLossyLinks: worker shards and link loss are refused
// once, by the fabric, which owns the reason (shared link state, one
// global loss stream); New adds no check of its own in front of it.
func TestShardsRefuseLossyLinks(t *testing.T) {
	m := model.Default()
	m.LinkLossRate = 0.05
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	var got any
	func() {
		defer func() { got = recover() }()
		New(Spec{Elan: &opts, Model: &m, Progress: pml.Polling, Shards: 2}, 4)
	}()
	if want := "fabric: LossRate > 0 is incompatible with a sharded kernel"; got != want {
		t.Fatalf("New with Shards: 2 on a lossy model panicked with %v, want %q", got, want)
	}
}

// TestWakesInPlace: on a 2-rank ping-pong some host compute charges are the
// kernel's next event and run without a switch; with worker shards none
// does. TestShardedClusterIdentity holds such runs to one signature at
// every shard count.
func TestWakesInPlace(t *testing.T) {
	for _, shards := range []int{0, 2} {
		opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
		c := New(Spec{Elan: &opts, Progress: pml.Polling, Shards: shards}, 2)
		c.Launch(func(p *Proc) {
			runTestPattern(p, 2, "pingpong", 64, 8)
			p.Finalize()
		})
		if err := c.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if n := c.K.WakesInPlace(); (shards == 0) != (n > 0) {
			t.Errorf("shards=%d: %d of %d events were wakes run in place", shards, n, c.K.Steps())
		}
	}
}

// TestShardedUsesWorkers guards against the engine silently staying
// sequential: with 4 shards on an 8-node all-to-all, worker shards must
// execute a substantial share of the events.
func TestShardedUsesWorkers(t *testing.T) {
	c := shardedAlltoall(t, 4)
	steps := c.K.ShardSteps()
	if steps == nil {
		t.Fatal("kernel is not sharded")
	}
	var worker, total int64
	for i, n := range steps {
		total += n
		if i > 0 {
			worker += n
		}
	}
	t.Logf("shard steps: %v", steps)
	if worker*2 < total {
		t.Errorf("workers ran %d of %d events; expected the majority", worker, total)
	}
	if _ = simtime.GlobalEntity; c.K.Sharded() != 4 {
		t.Errorf("Sharded() = %d, want 4", c.K.Sharded())
	}
}

// shardedAlltoall runs an 8-rank all-to-all on the given shard count and
// returns the cluster, its kernel closed.
func shardedAlltoall(t *testing.T, shards int) *Cluster {
	t.Helper()
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	c := New(Spec{Elan: &opts, Progress: pml.Polling, Shards: shards}, 8)
	c.Launch(func(p *Proc) {
		runTestPattern(p, 8, "alltoall", 2048, 3)
		p.Finalize()
	})
	if err := c.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return c
}

// TestShardEpochStats: the epoch counters account for every event of a
// sharded run — the events run inside epochs plus those the coordinator
// ran one at a time are K.Steps() — and every epoch handed to a worker came
// back, at most one per worker shard beyond the first per epoch.
func TestShardEpochStats(t *testing.T) {
	for _, shards := range []int{2, 4} {
		c := shardedAlltoall(t, shards)
		st := c.K.EpochStats()
		t.Logf("shards=%d: %+v, %d steps", shards, st, c.K.Steps())
		if st.Events+st.Sequential != c.K.Steps() {
			t.Errorf("shards=%d: %d events in epochs + %d sequential != %d steps", shards, st.Events, st.Sequential, c.K.Steps())
		}
		if st.Epochs == 0 || st.Events == 0 || st.Commits == 0 {
			t.Errorf("shards=%d: %+v: a sharded all-to-all ran no epoch, event or commit", shards, st)
		}
		if h := st.Spun + st.Parked; h == 0 || h > st.Epochs*int64(shards-1) {
			t.Errorf("shards=%d: %d handoffs over %d epochs", shards, h, st.Epochs)
		}
	}
}

// TestShardHandoffsParkAtOneProc: with fewer Ps than worker shards no
// worker yields in a loop between epochs, so at GOMAXPROCS=1 every handoff
// takes the park path.
func TestShardHandoffsParkAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st := shardedAlltoall(t, 2).K.EpochStats()
	if st.Parked == 0 || st.Spun != 0 {
		t.Errorf("%d handoffs parked, %d spun; want every one parked", st.Parked, st.Spun)
	}
}
