package main

import (
	"fmt"
	"math"
	"strings"
)

// runSelfcheck measures every workload twice, back to back, with the same
// code and the same seed, and reports every end-to-end metric whose two
// medians differ by more than the metric's own bound. The simulated clock,
// the output digest and the failure count may not differ at all. A
// benchmark that cannot agree with itself cannot gate anything.
func runSelfcheck(e *env, seconds float64) error {
	var sets [2][]*result
	for s := range sets {
		for _, w := range workloads {
			res, err := measure(w.name, processSpawner(w.name, e), seconds, minReps)
			if err != nil {
				return err
			}
			if err := res.print(); err != nil {
				return err
			}
			sets[s] = append(sets[s], res)
		}
	}
	bad := compareSets(sets[0], sets[1])
	if len(bad) > 0 {
		return fmt.Errorf("the two sets disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return nil
}

// compareSets prints both sets side by side and returns the disagreements.
func compareSets(a, b []*result) (bad []string) {
	fmt.Printf("%-14s %-12s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	for i := range a {
		x, y := a[i], b[i]
		for _, m := range endToEnd {
			first, second := x.e2e[m.name].median, y.e2e[m.name].median
			differ := math.Abs(second-first) / first
			bound := m.bound
			if m.name == "sim_us" {
				bound = 0
			}
			fmt.Printf("%-14s %-12s %16.6f %16.6f %8.2f%% %6.0f%%\n", x.workload, m.name, first, second, 100*differ, 100*bound)
			if !(differ <= bound) {
				bad = append(bad, fmt.Sprintf("%s %s: %.6f then %.6f %s, %.2f%% apart, bound %.0f%%",
					x.workload, m.name, first, second, m.unit, 100*differ, 100*bound))
			}
		}
		if x.digest != y.digest {
			bad = append(bad, fmt.Sprintf("%s sim_digest: %.12s then %.12s", x.workload, x.digest, y.digest))
		}
		for _, r := range []*result{x, y} {
			if !r.correct() {
				bad = append(bad, fmt.Sprintf("%s: %d of %d ops failed, %d problems", r.workload, r.failed, r.ops, len(r.problems)))
			}
		}
	}
	return bad
}
