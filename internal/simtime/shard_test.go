package simtime

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// The synthetic sharded workload: swEntities entities exchange messages in
// an alltoall-ish pattern. Each entity sleeps a per-entity random duration,
// then "sends" to a rotating peer through Sched.Commit, mimicking the
// fabric: the commit schedules the delivery onto the destination entity at
// send time + lookahead + jitter. Every observable — send times, receive
// times, payloads, random draws — is recorded in per-entity logs, which
// must be identical at every shard count.
const (
	swEntities = 8
	swIters    = 6
	swLook     = 100 * Nanosecond
)

// blockOwner partitions entities 1..swEntities into contiguous blocks.
func blockOwner(workers int) func(Entity) int {
	return func(e Entity) int {
		return (int(e)-1)*workers/swEntities + 1
	}
}

func newTestKernel(workers int) *Kernel {
	k := NewKernel()
	k.Shard(ShardPlan{Workers: workers, Owner: blockOwner(workers), Lookahead: swLook})
	return k
}

type synthRes struct {
	logs  [][]string
	final Time
	steps int64
}

// synthSetup wires the synthetic workload onto k and returns the logs
// slice that the run fills in.
func synthSetup(k *Kernel) [][]string {
	logs := make([][]string, swEntities+1)
	for i := 1; i <= swEntities; i++ {
		ent := Entity(i)
		sc := k.SchedFor(ent)
		sc.Spawn(fmt.Sprintf("ent%d", i), func(p *Proc) {
			for iter := 0; iter < swIters; iter++ {
				p.Sleep(Duration(sc.Rand().Intn(1000)) * Nanosecond)
				dst := Entity((int(ent)+iter)%swEntities + 1)
				sendT := sc.Now()
				jit := Duration(sc.Rand().Intn(50)) * Nanosecond
				payload := fmt.Sprintf("%d->%d#%d", ent, dst, iter)
				logs[ent] = append(logs[ent], fmt.Sprintf("send t=%v %s", sendT, payload))
				// Delivery times get a per-source picosecond stamp so no two
				// sources ever deliver at the same instant: cross-source ties
				// at one destination are merge-batch dependent, and the real
				// fabric serializes them through link occupancy instead.
				at := sendT.Add(swLook + jit + Duration(ent)*Picosecond)
				sc.Commit("xmit:"+payload, func() {
					k.SchedFor(dst).At(at, "deliver:"+payload, func() {
						logs[dst] = append(logs[dst], fmt.Sprintf("recv t=%v %s", at, payload))
					})
				})
			}
		})
	}
	return logs
}

func runSynthetic(workers int) synthRes {
	k := newTestKernel(workers)
	logs := synthSetup(k)
	k.EnableParallel()
	k.Run()
	k.Close()
	return synthRes{logs: logs, final: k.Now(), steps: k.Steps()}
}

// TestSequentialPhaseIsOneEngine pins the reference the identity gates
// compare against: a kernel left as NewKernel built it, one given a plan
// that adds no worker, and one with three workers whose parallel epochs
// are never enabled execute the same (time, name) event stream, the same
// number of steps and the same per-entity history.
func TestSequentialPhaseIsOneEngine(t *testing.T) {
	type result struct {
		stream []string
		logs   [][]string
		steps  int64
	}
	var want result
	for i, workers := range []int{0, 1, 3} {
		k := NewKernel()
		if i > 0 {
			k.Shard(ShardPlan{Workers: workers, Owner: blockOwner(workers), Lookahead: swLook})
		}
		var got result
		// Not SetTracer, which refuses workers: in the sequential phase every
		// event still passes the coordinator's exec, where the hook sits.
		k.tracer = func(at Time, what string) {
			got.stream = append(got.stream, fmt.Sprintf("%d %s", int64(at), what))
		}
		got.logs = synthSetup(k)
		k.Run()
		got.steps = k.Steps()
		k.Close()
		if i == 0 {
			if want = got; want.steps == 0 || int64(len(want.stream)) != want.steps {
				t.Fatalf("untouched kernel: %d steps, %d traced events", want.steps, len(want.stream))
			}
			continue
		}
		if got.steps != want.steps {
			t.Errorf("workers=%d: %d steps, want %d", workers, got.steps, want.steps)
		}
		if !reflect.DeepEqual(got.stream, want.stream) {
			t.Errorf("workers=%d: event stream diverged from the untouched kernel's", workers)
		}
		if !reflect.DeepEqual(got.logs, want.logs) {
			t.Errorf("workers=%d: entity history diverged from the untouched kernel's", workers)
		}
	}
}

// TestDeterminism is the core gate at the engine level. A workload of
// global procs over a Counter and a Signal reproduces itself run for run and
// at every worker count, and the synthetic workload's per-entity
// observable history is identical with no workers and at 1 (a plan that
// adds none), 2, 4 and 8 worker shards.
func TestDeterminism(t *testing.T) {
	global := func(workers int) (int64, Time, string) {
		k := newTestKernel(workers)
		defer k.Close()
		var log string
		sig := NewSignal()
		arrived := NewCounter()
		for i := 0; i < 10; i++ {
			k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(Duration(i) * Microsecond)
				arrived.Add(1)
				sig.Wait(p)
				log += fmt.Sprintf("%d;", i)
			})
		}
		k.Spawn("collector", func(p *Proc) {
			arrived.WaitFor(p, 10)
			sig.Fire()
		})
		k.EnableParallel()
		k.Run()
		return k.Steps(), k.Now(), log
	}
	s0, t0, l0 := global(0)
	base := runSynthetic(0)
	if base.steps == 0 || base.final == 0 {
		t.Fatalf("baseline did no work: steps=%d final=%v", base.steps, base.final)
	}
	for _, w := range []int{0, 1, 2, 4, 8} {
		if s, at, l := global(w); s != s0 || at != t0 || l != l0 {
			t.Fatalf("workers=%d nondeterministic: (%d,%v,%q) vs (%d,%v,%q)", w, s0, t0, l0, s, at, l)
		}
		got := runSynthetic(w)
		for e := 1; e <= swEntities; e++ {
			if !reflect.DeepEqual(got.logs[e], base.logs[e]) {
				t.Fatalf("workers=%d entity %d log diverged:\n got: %v\nwant: %v", w, e, got.logs[e], base.logs[e])
			}
		}
		if got.final != base.final {
			t.Errorf("workers=%d final time %v, want %v", w, got.final, base.final)
		}
		if got.steps != base.steps {
			t.Errorf("workers=%d executed %d events, want %d", w, got.steps, base.steps)
		}
	}
}

// TestRandForPlacementIndependent asserts that per-entity random streams
// depend only on (seed, entity), so a kernel draws identical sequences at
// every worker count.
func TestRandForPlacementIndependent(t *testing.T) {
	draw := func(workers int) [][]int64 {
		k := newTestKernel(workers)
		out := make([][]int64, swEntities+1)
		for e := 1; e <= swEntities; e++ {
			r := k.RandFor(Entity(e))
			for j := 0; j < 16; j++ {
				out[e] = append(out[e], r.Int63())
			}
		}
		return out
	}
	base := draw(0)
	for _, w := range []int{2, 4} {
		if got := draw(w); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d per-entity rand sequences diverged from the worker-less kernel's", w)
		}
	}
	// Distinct entities draw distinct streams.
	if reflect.DeepEqual(base[1], base[2]) {
		t.Fatal("entities 1 and 2 share a random stream")
	}
}

// TestStalled checks deadlock reporting: a parked global proc is listed
// once the kernel is idle, and parked non-daemon procs are aggregated
// across all shards, sorted, with daemons excluded.
func TestStalled(t *testing.T) {
	for _, workers := range []int{0, 4} {
		k := newTestKernel(workers)
		sig := NewSignal()
		k.Spawn("stuck", func(p *Proc) { sig.Wait(p) })
		k.EnableParallel()
		k.Run()
		if k.anyWork() {
			t.Fatalf("workers=%d: kernel should be idle", workers)
		}
		if st := k.Stalled(); len(st) != 1 || st[0] != "stuck" {
			t.Fatalf("workers=%d: stalled = %v", workers, st)
		}

		k = newTestKernel(workers)
		for i := 1; i <= swEntities; i++ {
			sc := k.SchedFor(Entity(i))
			sig := NewSignal()
			sc.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
				sig.Wait(p)
			})
		}
		k.SchedFor(1).Spawn("nicloop", func(p *Proc) {
			p.MarkDaemon()
			NewSignal().Wait(p)
		})
		k.EnableParallel()
		k.Run()
		if k.anyWork() {
			t.Fatalf("workers=%d: kernel not idle after drain", workers)
		}
		want := []string{"stuck1", "stuck2", "stuck3", "stuck4", "stuck5", "stuck6", "stuck7", "stuck8"}
		if got := k.Stalled(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Stalled() = %v, want %v", workers, got, want)
		}
	}
}

// TestAwaitSequential checks the finalize path: a worker proc requests the
// sequential phase, loses no virtual time across the switch, and can then
// touch coordinator-owned scheduling.
func TestAwaitSequential(t *testing.T) {
	k := newTestKernel(4)
	var parT, seqT Time
	globalRan := false
	sc := k.SchedFor(5)
	sc.Spawn("finalizer", func(p *Proc) {
		p.Sleep(500 * Nanosecond)
		parT = p.Now()
		if !k.InParallel() {
			t.Error("expected parallel phase before AwaitSequential")
		}
		k.AwaitSequential(p)
		seqT = p.Now()
		k.SchedFor(GlobalEntity).After(0, "global-step", func() { globalRan = true })
	})
	k.EnableParallel()
	k.Run()
	if parT != Time(0).Add(500*Nanosecond) || seqT != parT {
		t.Fatalf("virtual time across phase switch: parallel=%v sequential=%v", parT, seqT)
	}
	if !globalRan {
		t.Fatal("global event after AwaitSequential never ran")
	}
	if k.InParallel() {
		t.Fatal("still parallel after AwaitSequential")
	}
}

// TestCrossShardScheduleViolation checks the ownership guard: scheduling
// onto a foreign shard from inside a worker epoch panics with a
// diagnosable message instead of corrupting the foreign heap.
func TestCrossShardScheduleViolation(t *testing.T) {
	k := newTestKernel(4)
	var msg atomic.Value
	sc := k.SchedFor(2)
	sc.Spawn("violator", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg.Store(fmt.Sprint(r))
				}
			}()
			// Entity 8 lives on another shard under blockOwner(4).
			k.SchedFor(8).At(p.Now().Add(Microsecond), "bad", func() {})
		}()
	})
	k.EnableParallel()
	k.Run()
	got, _ := msg.Load().(string)
	if !strings.Contains(got, "cross-shard") {
		t.Fatalf("expected cross-shard panic, got %q", got)
	}
}

// TestCancelOnIdleDrains checks watchdog-style self-rearming timers: they
// fire while real work is pending and are dropped once only they remain,
// with and without worker shards.
func TestCancelOnIdleDrains(t *testing.T) {
	for _, workers := range []int{0, 2} {
		k := newTestKernel(workers)
		ticks := 0
		g := k.SchedFor(GlobalEntity)
		var arm func()
		arm = func() {
			g.AfterCancelable(Microsecond, "tick", func() {
				ticks++
				arm()
			})
		}
		arm()
		k.SchedFor(1).Spawn("worker", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(700 * Nanosecond)
			}
		})
		k.EnableParallel()
		k.Run()
		if k.anyWork() {
			t.Fatalf("workers=%d: self-rearming timer kept the kernel alive", workers)
		}
		if ticks != 3 {
			t.Errorf("workers=%d: %d ticks before drain, want 3 (work ends at 3.5us)", workers, ticks)
		}
	}
}

// TestMergedCommitTiesLocalEvent pins the order of a tie the barrier
// merge creates. During one epoch entity 5 schedules events of its own at
// T, under strided seqs, while entities 1 and 2, on another shard, commit
// events onto entity 5 at the same T. The merge schedules those under the
// global sequence, below the strided seqs already pending on entity 5's
// shard, so they run first — as in the sequential kernel, where the
// committing entities' events were scheduled, and so ran, first.
func TestMergedCommitTiesLocalEvent(t *testing.T) {
	const T = Time(150 * Nanosecond)
	want := []string{"D1", "D2", "L1", "L2", "L3"}
	for _, workers := range []int{0, 2, 4} {
		k := newTestKernel(workers)
		var got []string
		dst := k.SchedFor(5)
		note := func(name string) func() { return func() { got = append(got, name) } }
		for _, src := range []Entity{1, 2} {
			name := fmt.Sprintf("D%d", src)
			sc := k.SchedFor(src)
			sc.At(0, "send", func() {
				sc.Commit("xmit", func() { dst.At(T, name, note(name)) })
			})
		}
		dst.At(0, "local", func() {
			dst.At(T+1, "L3", note("L3"))
			dst.At(T, "L1", note("L1"))
			dst.At(T, "L2", note("L2"))
		})
		k.EnableParallel()
		k.Run()
		k.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: entity 5 ran %v, want %v", workers, got, want)
		}
	}
}
