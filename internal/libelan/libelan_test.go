package libelan

import (
	"fmt"
	"testing"

	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
)

type res map[int][2]int

func (r res) Resolve(v int) (int, int, bool) { e, ok := r[v]; return e[0], e[1], ok }

type bed struct {
	k     *simtime.Kernel
	cfg   model.Config
	host  []*simtime.Host
	state []*State
}

func newBed(t testing.TB, n int) *bed {
	t.Helper()
	cfg := model.Default()
	k := simtime.NewKernel()
	net := fabric.New(k, fabric.Params{
		LinkBandwidth: cfg.LinkBandwidth, WireLatency: cfg.WireLatency,
		SwitchLatency: cfg.SwitchLatency, MTU: cfg.MTU,
		PacketOverhead: cfg.PacketOverhead, Arity: cfg.FatTreeRadix,
	}, n)
	b := &bed{k: k, cfg: cfg}
	r := res{}
	for i := 0; i < n; i++ {
		h := simtime.NewHost(k, fmt.Sprintf("n%d", i), cfg.HostCPUs)
		nic := elan4.NewNIC(k, h, net, i, cfg, r)
		c := nic.OpenContext(0)
		c.SetVPID(i)
		r[i] = [2]int{i, 0}
		b.host = append(b.host, h)
		b.state = append(b.state, Attach(c, cfg))
	}
	return b
}

// qdmaPingPong measures native QDMA half-round-trip latency for a payload
// size, the baseline of the paper's Fig. 9.
func qdmaPingPong(t testing.TB, size, iters int, mode WaitMode) float64 {
	b := newBed(t, 2)
	q0 := b.state[0].NewQueue(1, 64)
	q1 := b.state[1].NewQueue(1, 64)
	payload := make([]byte, size)
	var total simtime.Duration
	b.host[0].Spawn("ping", func(th *simtime.Thread) {
		for i := 0; i < iters; i++ {
			start := th.Now()
			b.state[0].QDMA(th, 1, 1, payload, nil, nil)
			q0.Recv(th, mode)
			total += th.Now().Sub(start)
		}
	})
	b.host[1].Spawn("pong", func(th *simtime.Thread) {
		for i := 0; i < iters; i++ {
			q1.Recv(th, mode)
			b.state[1].QDMA(th, 0, 1, payload, nil, nil)
		}
	})
	b.k.Run()
	if st := b.k.Stalled(); len(st) != 0 {
		t.Fatalf("stalled: %v", st)
	}
	return total.Micros() / float64(iters) / 2
}

func TestQDMALatencyCalibration(t *testing.T) {
	lat0 := qdmaPingPong(t, 0, 100, Poll)
	// Native QDMA zero-byte latency should land near the paper's ~2-3us.
	if lat0 < 1.5 || lat0 > 3.5 {
		t.Fatalf("native QDMA 0B latency = %.3fus, want ≈2-3us", lat0)
	}
	lat2k := qdmaPingPong(t, 1984, 100, Poll)
	if lat2k <= lat0 {
		t.Fatalf("1984B latency %.3f ≤ 0B latency %.3f", lat2k, lat0)
	}
	// Per-byte slope should correspond to roughly 600MB/s-1.3GB/s of
	// effective single-packet bandwidth.
	slope := (lat2k - lat0) / 1984 // us per byte
	if slope < 0.0007 || slope > 0.004 {
		t.Fatalf("per-byte slope %.5fus/B implausible (lat2k=%.3f lat0=%.3f)", slope, lat2k, lat0)
	}
	t.Logf("native QDMA: 0B %.3fus, 1984B %.3fus", lat0, lat2k)
}

func TestBlockModeSlowerThanPoll(t *testing.T) {
	poll := qdmaPingPong(t, 4, 50, Poll)
	block := qdmaPingPong(t, 4, 50, Block)
	if block <= poll {
		t.Fatalf("blocking (%.3fus) should cost more than polling (%.3fus)", block, poll)
	}
	// The gap per half-RT should be at least the interrupt latency.
	if gap := block - poll; gap < model.Default().InterruptLatency.Micros() {
		t.Fatalf("block-poll gap %.3fus below interrupt latency", gap)
	}
}

func TestBlockEventNoLostWakeup(t *testing.T) {
	// The arm/recheck loop must not sleep through a fire that lands
	// between the check and the arm.
	b := newBed(t, 2)
	dst := make([]byte, 64)
	src := make([]byte, 64)
	srcAddr := b.state[0].Ctx.Register(src)
	dstAddr := b.state[1].Ctx.Register(dst)
	for trial := 0; trial < 20; trial++ {
		ev := b.state[0].Ctx.NewEvent(1)
		ev.SetHostWord(simtime.NewCounter())
		doneTrial := simtime.NewSignal()
		b.host[0].Spawn("writer", func(th *simtime.Thread) {
			b.state[0].RDMAWrite(th, 1, srcAddr, dstAddr, 64, ev, nil)
			b.state[0].BlockEvent(th, ev, 1)
			doneTrial.Fire()
		})
		b.k.Run()
		if !doneTrial.Fired() {
			t.Fatalf("trial %d: BlockEvent lost the wakeup", trial)
		}
	}
}

func TestSpinTimeAccounting(t *testing.T) {
	b := newBed(t, 2)
	q1 := b.state[1].NewQueue(1, 8)
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		th.Proc().Sleep(100 * simtime.Microsecond)
		b.state[0].QDMA(th, 1, 1, []byte("x"), nil, nil)
	})
	b.host[1].Spawn("recv", func(th *simtime.Thread) {
		q1.Recv(th, Poll)
	})
	b.k.Run()
	st := b.state[1].Stats()
	if st.SpinTime < 90*simtime.Microsecond {
		t.Fatalf("spin time %v, want ≈100us of polling", st.SpinTime)
	}
	if st.PollWaits == 0 {
		t.Fatal("poll waits not counted")
	}
}

func TestWakePenaltyCharged(t *testing.T) {
	// A queue with a wake penalty must make blocking receives slower by
	// exactly that surcharge (the two-thread contention model).
	measure := func(penalty simtime.Duration) simtime.Time {
		b := newBed(t, 2)
		q := b.state[1].NewQueue(1, 8)
		q.WakePenalty = penalty
		var at simtime.Time
		b.host[0].Spawn("sender", func(th *simtime.Thread) {
			th.Proc().Sleep(20 * simtime.Microsecond)
			b.state[0].QDMA(th, 1, 1, []byte("x"), nil, nil)
		})
		b.host[1].Spawn("recv", func(th *simtime.Thread) {
			q.Recv(th, Block)
			at = th.Now()
		})
		b.k.Run()
		return at
	}
	base := measure(0)
	penal := measure(simtime.Micros(4.7))
	if gap := penal.Sub(base).Micros(); gap < 4.6 || gap > 4.8 {
		t.Fatalf("wake penalty added %.2fus, want 4.7", gap)
	}
}

func TestBlockStatsCounted(t *testing.T) {
	b := newBed(t, 2)
	q := b.state[1].NewQueue(1, 8)
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		th.Proc().Sleep(10 * simtime.Microsecond)
		b.state[0].QDMA(th, 1, 1, []byte("x"), nil, nil)
	})
	b.host[1].Spawn("recv", func(th *simtime.Thread) {
		q.Recv(th, Block)
	})
	b.k.Run()
	if b.state[1].Stats().BlockWaits == 0 {
		t.Fatal("block waits not counted")
	}
}

func TestBcastQDMAHelper(t *testing.T) {
	b := newBed(t, 3)
	q1 := b.state[1].NewQueue(1, 4)
	q2 := b.state[2].NewQueue(1, 4)
	got := 0
	b.host[0].Spawn("root", func(th *simtime.Thread) {
		b.state[0].BcastQDMA(th, []int{1, 2}, 1, []byte("multi"), nil, nil)
	})
	for i, q := range []*Queue{q1, q2} {
		i, q := i, q
		b.host[i+1].Spawn("leaf", func(th *simtime.Thread) {
			m := q.Recv(th, Poll)
			if string(m.Data) == "multi" {
				got++
			}
		})
	}
	b.k.Run()
	if got != 2 {
		t.Fatalf("broadcast reached %d of 2", got)
	}
}

// TestReadyTake: Ready reads a deposited message without consuming it or
// charging time, and Take consumes it once.
func TestReadyTake(t *testing.T) {
	b := newBed(t, 2)
	q1 := b.state[1].NewQueue(1, 8)
	var got string
	b.host[1].Spawn("recv", func(th *simtime.Thread) {
		if q1.Ready() {
			t.Error("Ready on an empty queue")
		}
		if _, ok := q1.Take(); ok {
			t.Error("Take on an empty queue succeeded")
		}
		th.Proc().Sleep(50 * simtime.Microsecond)
		at := th.Now()
		if !q1.Ready() || !q1.Ready() {
			t.Fatal("Ready missed a deposited message")
		}
		m, ok := q1.Take()
		got = string(m.Data)
		if !ok || q1.Ready() || th.Now() != at {
			t.Errorf("Take: ok %v, still ready %v, %v charged; want true, false, none", ok, q1.Ready(), th.Now().Sub(at))
		}
	})
	b.host[0].Spawn("sender", func(th *simtime.Thread) {
		b.state[0].QDMA(th, 1, 1, []byte("y"), nil, nil)
	})
	b.k.Run()
	if got != "y" {
		t.Fatalf("Take returned %q, want the deposited message", got)
	}
}
