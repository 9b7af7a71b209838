package cluster_test

import (
	"bytes"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/model"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptl"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/ptltcp"
	"qsmpi/internal/simtime"
)

func elanSpec() cluster.Spec {
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	return cluster.Spec{Elan: &o, Progress: pml.Polling}
}

func TestMoreProcsThanNodes(t *testing.T) {
	// Six processes on three nodes: two NIC contexts per node, loopback
	// traffic between co-located ranks crosses only the switch.
	spec := elanSpec()
	spec.Nodes = 3
	c := cluster.New(spec, 6)
	verified := 0
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(2048)
		// Ring: rank r sends to r+1.
		next := (p.Rank + 1) % 6
		prev := (p.Rank + 5) % 6
		buf := make([]byte, 2048)
		for i := range buf {
			buf[i] = byte(p.Rank)
		}
		got := make([]byte, 2048)
		r := p.Stack.Recv(p.Th, prev, 0, 0, got, dt)
		p.Stack.Send(p.Th, next, 0, 0, buf, dt).Wait(p.Th)
		r.Wait(p.Th)
		if got[0] == byte(prev) && got[2047] == byte(prev) {
			verified++
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if verified != 6 {
		t.Fatalf("%d ranks verified", verified)
	}
}

func TestColocatedRanksShareNIC(t *testing.T) {
	spec := elanSpec()
	spec.Nodes = 1
	c := cluster.New(spec, 2)
	ok := false
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(512)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 0, 0, bytes.Repeat([]byte{7}, 512), dt).Wait(p.Th)
		} else {
			buf := make([]byte, 512)
			p.Stack.Recv(p.Th, 0, 0, 0, buf, dt).Wait(p.Th)
			ok = buf[0] == 7 && buf[511] == 7
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("same-node message corrupted")
	}
	if len(c.NICs) != 1 {
		t.Fatalf("expected a single NIC, got %d", len(c.NICs))
	}
}

// TestLifecycleStagesThroughFinalize walks every rank's one module list:
// each module is active while the job runs, closed once its rank has
// finalized, and has put back every buffer it took from its pool. In the
// TCP row 1 MiB passes once around a ring of three ranks; the last
// finalizes as soon as its own requests complete, while its TCP share to
// rank 0 is still on the wire, and the others finish their receives,
// disconnect it and finalize.
func TestLifecycleStagesThroughFinalize(t *testing.T) {
	write := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
	rows := []struct {
		name  string
		spec  cluster.Spec
		procs int
		ring  int // bytes each rank sends to the next; 0 sends nothing
	}{
		{"elan", elanSpec(), 2, 0},
		{"elan-write+tcp", cluster.Spec{Elan: &write, TCP: &ptltcp.Options{Weight: 0.5}, Progress: pml.Polling}, 3, 1 << 20},
	}
	stage := func(m ptl.Module) ptl.Stage {
		return m.(interface{ Lifecycle() *ptl.Lifecycle }).Lifecycle().Stage()
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := cluster.New(row.spec, row.procs)
			last := row.procs - 1
			intact := make([]bool, row.procs)
			onWire := false
			c.Launch(func(p *cluster.Proc) {
				for _, m := range p.Stack.Modules() {
					if st := stage(m); st != ptl.StageActive {
						t.Errorf("rank %d: %T stage during run = %v", p.Rank, m, st)
					}
				}
				intact[p.Rank] = true
				if row.ring > 0 {
					dt := datatype.Contiguous(row.ring)
					from := (p.Rank + last) % row.procs
					in := make([]byte, row.ring)
					// One pass around the ring from rank 0: every other
					// rank sends once its receive is done.
					r := p.Stack.Recv(p.Th, from, 0, 0, in, dt)
					if p.Rank > 0 {
						r.Wait(p.Th)
					}
					p.Stack.Send(p.Th, (p.Rank+1)%row.procs, 0, 0, pattern(row.ring, p.Rank), dt).Wait(p.Th)
					if p.Rank == 0 {
						r.Wait(p.Th)
					}
					intact[p.Rank] = bytes.Equal(in, pattern(row.ring, from))
					if p.Rank == last {
						sent, delivered := c.EthNet.Stats()
						onWire = sent > delivered
					} else {
						p.Stack.DelPeer(p.Th, last)
					}
				}
				p.Finalize()
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if row.ring > 0 && !onWire {
				t.Error("no TCP segment on the wire when the last rank finalized")
			}
			for _, p := range c.Procs() {
				if !intact[p.Rank] {
					t.Errorf("rank %d: payload corrupted", p.Rank)
				}
				for _, m := range p.Stack.Modules() {
					if st := stage(m); st != ptl.StageClosed {
						t.Errorf("rank %d: %T stage after finalize = %v", p.Rank, m, st)
					}
					if ps := m.PoolStats(); ps.Gets != ps.Puts {
						t.Errorf("rank %d: %T pool %d gets, %d puts", p.Rank, m, ps.Gets, ps.Puts)
					}
				}
			}
		})
	}
}

// pattern is n bytes that differ from every other rank's.
func pattern(n, rank int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + rank)
	}
	return b
}

func TestRegistryReflectsLeave(t *testing.T) {
	c := cluster.New(elanSpec(), 3)
	vpids := make([]int, 3)
	c.Launch(func(p *cluster.Proc) {
		vpids[p.Rank] = p.RTE.VPID()
		if p.Rank == 2 {
			p.Finalize()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for r, v := range vpids {
		if _, _, ok := c.Registry.Resolve(v); ok != (r != 2) {
			t.Errorf("rank %d (VPID %d) resolves %v, want only the two survivors to", r, v, ok)
		}
	}
}

func TestDualRailSetup(t *testing.T) {
	o := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
	spec := cluster.Spec{
		Elan:     &o,
		TCP:      &ptltcp.Options{Weight: 0.5},
		Progress: pml.Polling,
	}
	c := cluster.New(spec, 2)
	c.Launch(func(p *cluster.Proc) {
		mods := p.Stack.Modules()
		if len(mods) != 2 {
			t.Fatalf("stack has %d modules", len(mods))
		}
		if _, tcp := mods[1].(*ptltcp.Module); mods[0] != ptl.Module(p.Elan) || !tcp {
			t.Errorf("stack modules %T, %T: want the Elan rail, then TCP", mods[0], mods[1])
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.EthNet == nil {
		t.Fatal("ethernet fabric not built")
	}
}

func TestMultirailQuadricsStripes(t *testing.T) {
	// Two Quadrics rails, write scheme: a large message must be striped
	// across both rails' RDMA engines and arrive intact.
	o := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
	spec := cluster.Spec{Elan: &o, ElanRails: 2, Progress: pml.Polling}
	c := cluster.New(spec, 2)
	const n = 1 << 20
	ok := false
	var rail0, rail1 int64
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(n)
		if p.Rank == 0 {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i * 7)
			}
			p.Stack.Send(p.Th, 1, 0, 0, buf, dt).Wait(p.Th)
			rail0 = p.Elans[0].Stats().PutOps
			rail1 = p.Elans[1].Stats().PutOps
		} else {
			buf := make([]byte, n)
			p.Stack.Recv(p.Th, 0, 0, 0, buf, dt).Wait(p.Th)
			ok = true
			for i := 0; i < n; i += 997 {
				if buf[i] != byte(i*7) {
					ok = false
					break
				}
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("striped message corrupted")
	}
	if rail0 == 0 || rail1 == 0 {
		t.Fatalf("rails not both used: %d/%d puts", rail0, rail1)
	}
}

func TestMultirailFasterForLargeMessages(t *testing.T) {
	run := func(rails int) float64 {
		o := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
		spec := cluster.Spec{Elan: &o, ElanRails: rails, Progress: pml.Polling}
		c := cluster.New(spec, 2)
		const n = 1 << 20
		var done float64
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(n)
			if p.Rank == 0 {
				p.Stack.Send(p.Th, 1, 0, 0, make([]byte, n), dt).Wait(p.Th)
			} else {
				buf := make([]byte, n)
				p.Stack.Recv(p.Th, 0, 0, 0, buf, dt).Wait(p.Th)
				done = p.Th.Now().Micros()
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	one := run(1)
	two := run(2)
	speedup := one / two
	// The rendezvous handshake is not parallelized, so the ideal 2x is
	// shaved by the fixed per-message costs.
	if speedup < 1.4 {
		t.Fatalf("dual-rail speedup %.2fx for 1MB, want ≥1.4x", speedup)
	}
	t.Logf("1MB transfer: 1 rail %.1fus, 2 rails %.1fus (%.2fx)", one, two, speedup)
}

func TestProcessRestart(t *testing.T) {
	// Fault-tolerance flow of §3/§4.1: a process disjoins (finalize +
	// leave) and a replacement joins under a fresh name and VPID; the
	// survivor reconnects and traffic resumes.
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling, Nodes: 3}, 2)
	var got []byte
	// The announcements are signals of the test's own, as they would ride
	// the job's launcher.
	leaving, restarted := simtime.NewSignal(), simtime.NewSignal()
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(1024)
		switch p.Rank {
		case 0:
			// Phase 1: talk to the original rank 1.
			buf := make([]byte, 1024)
			p.Stack.Recv(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
			// Rank 1 announces its departure, then leaves.
			leaving.Wait(p.Th.Proc())
			p.Stack.DelPeer(p.Th, 1)
			// Phase 2: the replacement announces itself; reconnect.
			restarted.Wait(p.Th.Proc())
			// Rank 1's SpawnExtra below renamed it job0.rank1-gen2.
			c.ConnectPeers(p, []int{1})
			got = make([]byte, 1024)
			p.Stack.Recv(p.Th, 1, 2, 0, got, dt).Wait(p.Th)
		case 1:
			buf := make([]byte, 1024)
			for i := range buf {
				buf[i] = 1
			}
			p.Stack.Send(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
			leaving.Fire()
			p.Finalize()
			// The replacement process (simulating restart on node 2).
			c.SpawnExtra(1, 2, "job0.rank1-gen2", func(np *cluster.Proc) {
				c.ConnectPeers(np, []int{0})
				restarted.Fire()
				nbuf := make([]byte, 1024)
				for i := range nbuf {
					nbuf[i] = 2
				}
				np.Stack.Send(np.Th, 0, 2, 0, nbuf, dt).Wait(np.Th)
			})
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 || got[0] != 2 || got[1023] != 2 {
		t.Fatal("post-restart message wrong")
	}
}

func TestLossyLinksStayCorrect(t *testing.T) {
	// Failure injection: 5% CRC loss on every QsNet link. The link layer
	// retransmits in order, so the full protocol stack must still deliver
	// every byte intact — only slower.
	lossy := func(rate float64) (float64, int64) {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		m := model.Default()
		m.LinkLossRate = rate
		spec := cluster.Spec{Elan: &o, Model: &m, Progress: pml.Polling}
		c := cluster.New(spec, 2)
		const n = 1 << 20
		var done float64
		ok := false
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(n)
			if p.Rank == 0 {
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = byte(i * 13)
				}
				p.Stack.Send(p.Th, 1, 0, 0, buf, dt).Wait(p.Th)
			} else {
				buf := make([]byte, n)
				p.Stack.Recv(p.Th, 0, 0, 0, buf, dt).Wait(p.Th)
				done = p.Th.Now().Micros()
				ok = true
				for i := 0; i < n; i += 1009 {
					if buf[i] != byte(i*13) {
						ok = false
						break
					}
				}
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("lossy transfer corrupted data")
		}
		return done, c.Net.Retransmits()
	}
	clean, r0 := lossy(0)
	dirty, r5 := lossy(0.05)
	if r0 != 0 {
		t.Fatalf("clean run retransmitted %d packets", r0)
	}
	if r5 == 0 {
		t.Fatal("5%% loss produced no retransmissions")
	}
	if dirty <= clean {
		t.Fatalf("loss made the transfer faster (%.1f vs %.1f us)", dirty, clean)
	}
	t.Logf("1MB transfer: clean %.1fus, 5%% loss %.1fus (%d retransmits)", clean, dirty, r5)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, float64) {
		c := cluster.New(elanSpec(), 4)
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(10000)
			buf := make([]byte, 10000)
			for peer := 0; peer < 4; peer++ {
				if peer == p.Rank {
					continue
				}
				r := p.Stack.Recv(p.Th, peer, p.Rank, 0, make([]byte, 10000), dt)
				p.Stack.Send(p.Th, peer, peer, 0, buf, dt)
				r.Wait(p.Th)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.K.Steps(), c.Now().Micros()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("nondeterministic cluster: (%d, %.3f) vs (%d, %.3f)", s1, t1, s2, t2)
	}
}

// TestProgressRows: every row of the Table 1 mode table, by name and by
// thread count, validates, builds its PTL modules and carries a 4 KB
// rendezvous; a row the table does not have is an error, not Basic.
func TestProgressRows(t *testing.T) {
	for _, row := range []string{"basic", "interrupt", "one-thread", "two-threads", "0", "1", "2"} {
		spec, err := elanSpec().WithProgressRow(row)
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		c := cluster.New(spec, 2)
		c.Launch(func(p *cluster.Proc) {
			dt := datatype.Contiguous(4096)
			if p.Rank == 0 {
				p.Stack.Send(p.Th, 1, 1, 0, make([]byte, 4096), dt).Wait(p.Th)
			} else {
				p.Stack.Recv(p.Th, 0, 1, 0, make([]byte, 4096), dt).Wait(p.Th)
			}
		})
		if err := c.Run(); err != nil {
			t.Errorf("%s: %v", row, err)
		}
	}
	base := elanSpec()
	for _, row := range []string{"", "3", "-1", "Basic", "three-threads"} {
		if spec, err := base.WithProgressRow(row); err == nil {
			t.Errorf("row %q: no error, progress mode %v", row, spec.Progress)
		}
	}
	one, _ := base.WithProgressRow("1")
	if base.Elan.CQ != ptlelan4.NoCQ || one.Elan.CQ != ptlelan4.OneQueue || one.Progress != pml.Threaded {
		t.Errorf("row 1 gave %+v / %v and left the receiver's options at %+v", *one.Elan, one.Progress, *base.Elan)
	}
}
