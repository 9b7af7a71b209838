package parsweep

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRunOrdersResultsBySubmission(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got, st := Run(workers, 37, func(_ *Ctx, i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
		if st.Jobs() != 37 {
			t.Fatalf("workers=%d: %d jobs counted, want 37", workers, st.Jobs())
		}
	}
}

func TestRunIdenticalAcrossParallelism(t *testing.T) {
	job := func(_ *Ctx, i int) string {
		// Stagger finish order so slot order really is exercised.
		time.Sleep(time.Duration((i%3)*100) * time.Microsecond)
		return fmt.Sprintf("job-%d", i)
	}
	seq, _ := Run(1, 24, job)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		par, _ := Run(w, 24, job)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: slot %d = %q, want %q", w, i, par[i], seq[i])
			}
		}
	}
}

func TestWorkerCountClamps(t *testing.T) {
	_, st := Run(8, 3, func(_ *Ctx, i int) int { return i })
	if len(st.Workers) != 3 {
		t.Fatalf("pool not clamped to job count: %d workers", len(st.Workers))
	}
	_, st = Run(0, 5, func(_ *Ctx, i int) int { return i })
	want := runtime.GOMAXPROCS(0)
	if want > 5 {
		want = 5
	}
	if len(st.Workers) != want {
		t.Fatalf("workers<=0 should mean GOMAXPROCS (clamped): got %d, want %d", len(st.Workers), want)
	}
	if Resolve(0) != runtime.GOMAXPROCS(0) || Resolve(-3) != runtime.GOMAXPROCS(0) || Resolve(7) != 7 {
		t.Fatal("Resolve mapping wrong")
	}
}

func TestMetricsAggregateDeterministically(t *testing.T) {
	run := func(workers int) Metrics {
		_, st := Run(workers, 50, func(c *Ctx, i int) int {
			c.Report(Metrics{SimEvents: int64(i), PoolGets: 2, PoolHits: 1, PoolPuts: 1, Reused: int64(i % 2)})
			return i
		})
		return st.Totals()
	}
	want := Metrics{SimEvents: 49 * 50 / 2, PoolGets: 100, PoolHits: 50, PoolPuts: 50, Reused: 25}
	for _, w := range []int{1, 2, 5} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d: totals %+v, want %+v", w, got, want)
		}
	}
}

func TestStatsMergeAndHitRate(t *testing.T) {
	var acc Stats
	_, a := Run(2, 10, func(c *Ctx, i int) int {
		c.Report(Metrics{PoolGets: 4, PoolHits: 3})
		return i
	})
	_, b := Run(3, 5, func(c *Ctx, i int) int {
		c.Report(Metrics{PoolGets: 6, PoolHits: 0, Reused: 1})
		return i
	})
	acc.Merge(a)
	acc.Merge(b)
	if acc.Runs != 2 || acc.Jobs() != 15 {
		t.Fatalf("merged runs=%d jobs=%d, want 2/15", acc.Runs, acc.Jobs())
	}
	if len(acc.Workers) != 3 {
		t.Fatalf("merged worker table has %d entries, want 3", len(acc.Workers))
	}
	wantRate := float64(10*3) / float64(10*4+5*6)
	if got := acc.PoolHitRate(); got != wantRate {
		t.Fatalf("hit rate %.4f, want %.4f", got, wantRate)
	}
	if !strings.Contains(acc.String(), "15 jobs (5 reused)") {
		t.Fatalf("String() missing totals or reused jobs: %s", acc.String())
	}
}

func TestZeroJobs(t *testing.T) {
	out, st := Run(4, 0, func(_ *Ctx, i int) int { return i })
	if len(out) != 0 || st.Jobs() != 0 {
		t.Fatal("zero-job run not empty")
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("workers=%d: job panic swallowed", workers)
				}
			}()
			Run(workers, 8, func(_ *Ctx, i int) int {
				if i == 3 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

func TestMapHelper(t *testing.T) {
	got := Map(3, 6, func(i int) int { return i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("Map slot %d = %d", i, v)
		}
	}
}
