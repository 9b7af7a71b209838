package rte

import (
	"fmt"
	"testing"

	"qsmpi/internal/simtime"
)

func spawnThread(k *simtime.Kernel, name string, fn func(th *simtime.Thread)) {
	h := simtime.NewHost(k, name, 2)
	h.Spawn("main", fn)
}

func TestJoinAssignsDistinctVPIDs(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, simtime.Micros(10))
	got := map[int]bool{}
	for i := 0; i < 5; i++ {
		i := i
		spawnThread(k, fmt.Sprintf("n%d", i), func(th *simtime.Thread) {
			h := r.Join(th, fmt.Sprintf("proc%d", i), i, 0)
			got[h.VPID()] = true
		})
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("%d distinct VPIDs, want 5", len(got))
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, 0)
	panicked := false
	spawnThread(k, "n0", func(th *simtime.Thread) {
		r.Join(th, "same", 0, 0)
		func() {
			defer func() { panicked = recover() != nil }()
			r.Join(th, "same", 1, 0)
		}()
	})
	k.Run()
	if !panicked {
		t.Fatal("duplicate name accepted")
	}
}

func TestResolveAndLeave(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, simtime.Micros(5))
	spawnThread(k, "n0", func(th *simtime.Thread) {
		h := r.Join(th, "p0", 3, 1)
		port, ctx, ok := r.Resolve(h.VPID())
		if !ok || port != 3 || ctx != 1 {
			t.Errorf("Resolve = (%d,%d,%v)", port, ctx, ok)
		}
		h.Leave(th)
		if _, _, ok := r.Resolve(h.VPID()); ok {
			t.Error("departed VPID still resolves")
		}
	})
	k.Run()
}

func TestPublishLookupBlocksUntilAvailable(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, simtime.Micros(5))
	var got []byte
	var lookupDone simtime.Time
	spawnThread(k, "n0", func(th *simtime.Thread) {
		h := r.Join(th, "consumer", 0, 0)
		producer := func(int) string { return "producer" }
		if err := h.LookupEach(th, "qaddr", 1, producer, func(_ int, v []byte) error {
			got = v
			return nil
		}); err != nil {
			t.Error(err)
		}
		lookupDone = th.Now()
	})
	spawnThread(k, "n1", func(th *simtime.Thread) {
		h := r.Join(th, "producer", 1, 0)
		th.Proc().Sleep(200 * simtime.Microsecond)
		h.Publish(th, "qaddr", []byte{9, 8, 7})
	})
	k.Run()
	if string(got) != string([]byte{9, 8, 7}) {
		t.Fatalf("lookup = %v", got)
	}
	if lookupDone < simtime.Time(200*simtime.Microsecond) {
		t.Fatalf("lookup returned at %v, before publish", lookupDone)
	}
}

func TestLookupVPID(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, 0)
	var resolved int
	spawnThread(k, "n0", func(th *simtime.Thread) {
		h := r.Join(th, "a", 0, 0)
		resolved = h.LookupVPID(th, "b")
	})
	spawnThread(k, "n1", func(th *simtime.Thread) {
		th.Proc().Sleep(simtime.Microsecond)
		r.Join(th, "b", 1, 0)
	})
	k.Run()
	if resolved != 1 {
		t.Fatalf("LookupVPID = %d, want 1", resolved)
	}
}

func TestOOBMessaging(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, simtime.Micros(50))
	var got OOBMsg
	var at simtime.Time
	spawnThread(k, "n0", func(th *simtime.Thread) {
		h := r.Join(th, "a", 0, 0)
		peer := h.LookupVPID(th, "b")
		if err := h.SendOOB(th, peer, "hello", 42); err != nil {
			t.Error(err)
		}
	})
	spawnThread(k, "n1", func(th *simtime.Thread) {
		h := r.Join(th, "b", 1, 0)
		got = h.RecvOOB(th)
		at = th.Now()
	})
	k.Run()
	if got.Tag != "hello" || got.Payload.(int) != 42 || got.From != 0 {
		t.Fatalf("got %+v", got)
	}
	if at < simtime.Time(simtime.Micros(100)) {
		t.Fatalf("OOB delivered at %v, too fast for two 50us hops", at)
	}
}

func TestOOBToDeadProcessErrors(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, 0)
	spawnThread(k, "n0", func(th *simtime.Thread) {
		h := r.Join(th, "a", 0, 0)
		b := r.Join(th, "b-ghost", 1, 0)
		b.Leave(th)
		if err := h.SendOOB(th, b.VPID(), "x", nil); err == nil {
			t.Error("send to departed process succeeded")
		}
	})
	k.Run()
}

func TestRendezvous(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, simtime.Micros(1))
	var done []simtime.Time
	for i := 0; i < 4; i++ {
		i := i
		spawnThread(k, fmt.Sprintf("n%d", i), func(th *simtime.Thread) {
			th.Proc().Sleep(simtime.Duration(i*10) * simtime.Microsecond)
			r.Rendezvous(th, "init", 4)
			done = append(done, th.Now())
		})
	}
	k.Run()
	if len(done) != 4 {
		t.Fatalf("%d procs finished, want 4", len(done))
	}
	// Nobody may pass the barrier before the last arrival (~30us + oob).
	for _, d := range done {
		if d < simtime.Time(30*simtime.Microsecond) {
			t.Fatalf("barrier released at %v, before last arrival", d)
		}
	}
	// Tag must be reusable after completion.
	count := 0
	for i := 0; i < 2; i++ {
		spawnThread(k, fmt.Sprintf("m%d", i), func(th *simtime.Thread) {
			r.Rendezvous(th, "init", 2)
			count++
		})
	}
	k.Run()
	if count != 2 {
		t.Fatalf("rendezvous tag not reusable: %d", count)
	}
}

func TestAliveOrderAndContextAllocation(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, 0)
	if r.AllocContext(0) != 0 || r.AllocContext(0) != 1 || r.AllocContext(1) != 0 {
		t.Fatal("per-port context allocation broken")
	}
	spawnThread(k, "n0", func(th *simtime.Thread) {
		a := r.Join(th, "a", 0, 0)
		r.Join(th, "b", 1, 0)
		c := r.Join(th, "c", 2, 0)
		a.Leave(th)
		alive := r.Alive()
		if len(alive) != 2 || alive[0] != 1 || alive[1] != 2 {
			t.Errorf("alive = %v", alive)
		}
		if p, ok := r.Info(c.VPID()); !ok || p.Name != "c" {
			t.Error("Info lookup failed")
		}
	})
	k.Run()
}
