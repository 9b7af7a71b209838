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

// TestLookupVPID: rank→VPID resolution as connection setup does it — a
// process publishes its VPID, and a peer's LookupEach blocks until it has.
func TestLookupVPID(t *testing.T) {
	k := simtime.NewKernel()
	r := NewRegistry(k, 0)
	resolved := -1
	spawnThread(k, "n0", func(th *simtime.Thread) {
		h := r.Join(th, "a", 0, 0)
		if err := h.LookupEach(th, "vpid", 1, func(int) string { return "b" }, func(_ int, v []byte) error {
			resolved = int(v[0])
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	spawnThread(k, "n1", func(th *simtime.Thread) {
		th.Proc().Sleep(simtime.Microsecond)
		h := r.Join(th, "b", 1, 0)
		h.Publish(th, "vpid", []byte{byte(h.VPID())})
	})
	k.Run()
	if resolved != 1 {
		t.Fatalf("looked up VPID %d, want 1", resolved)
	}
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
		r.Join(th, "c", 2, 0)
		a.Leave(th)
		for v, want := range []bool{false, true, true} {
			if port, _, ok := r.Resolve(v); ok != want || ok && port != v {
				t.Errorf("VPID %d resolves to port %d, %v; want port %d, %v", v, port, ok, v, want)
			}
		}
	})
	k.Run()
}
