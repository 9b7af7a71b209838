package mpi

import (
	"math/bits"
	"testing"
)

// set is a bitset over the members: what a member holds in the abstract
// execution (whom it has heard from, whose contributions it has folded,
// whether the broadcast has reached it). Sets are replaced, never written
// in place, so a posted send's payload is the set as it stood at posting.
type set []uint64

func (s set) count() (c int) {
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

func (s set) with(o set) (set, bool) {
	u, disjoint := make(set, len(s)), true
	for i := range s {
		u[i], disjoint = s[i]|o[i], disjoint && s[i]&o[i] == 0
	}
	return u, disjoint
}

// pair is a directed (sender, receiver) edge.
type pair struct{ from, to int }

// checkSchedule walks every member's schedule of alg and runs them
// against each other in an abstract blocking executor: no kernel, no
// communicator, synchronous sends. A round posts its receive and its
// send and retires once the peer has posted the matching send and the
// matching receive, the k-th send of a pair meeting the k-th receive.
func checkSchedule(t *testing.T, alg algorithm, n, root int) {
	rounds := make([][]round, n)
	for me := range rounds {
		s := newSchedule(alg, n, me, root)
		for r, ok := s.next(); ok; r, ok = s.next() {
			for _, p := range []int{r.from, r.to} {
				// The ±2^d ring offsets experiments.CollPeers connects.
				up, down := (p-me+n)%n, (me-p+n)%n
				if p != noPeer && (p < 0 || p >= n || bits.OnesCount(uint(up)) != 1 && bits.OnesCount(uint(down)) != 1) {
					t.Fatalf("alg %d n=%d root=%d: member %d names partner %d, not at a ±2^d ring offset", alg, n, root, me, p)
				}
			}
			if len(rounds[me]) > 2*bits.Len(uint(n)) {
				t.Fatalf("alg %d n=%d root=%d: member %d's schedule does not end", alg, n, root, me)
			}
			rounds[me] = append(rounds[me], r)
		}
	}

	hold := make([]set, n) // what each member holds
	words := (n + 63) / 64
	for m := range hold {
		hold[m] = make(set, words)
		if alg != binomialDown || m == root {
			hold[m][m/64] |= 1 << (m % 64)
		}
	}
	sends := map[pair][]set{} // payloads of the sends posted on a pair, in order
	recvs := map[pair]int{}   // receives posted on a pair
	type ordinals struct{ send, recv int }
	at, mine := make([]int, n), make([]ordinals, n) // round in flight, its ordinals on its pairs
	post := func(m int) {
		if at[m] == len(rounds[m]) {
			return
		}
		r := rounds[m][at[m]]
		if r.from != noPeer {
			recvs[pair{r.from, m}]++
			mine[m].recv = recvs[pair{r.from, m}]
		}
		if r.to != noPeer {
			if alg == binomialDown && hold[m].count() == 0 {
				t.Fatalf("binomialDown n=%d root=%d: member %d forwards to %d before it has received", n, root, m, r.to)
			}
			sends[pair{m, r.to}] = append(sends[pair{m, r.to}], hold[m])
			mine[m].send = len(sends[pair{m, r.to}])
		}
	}
	for m := range rounds {
		post(m)
	}
	for progress := true; progress; {
		progress = false
		for m := range rounds {
			for at[m] < len(rounds[m]) {
				r := rounds[m][at[m]]
				if r.from != noPeer && len(sends[pair{r.from, m}]) < mine[m].recv ||
					r.to != noPeer && recvs[pair{m, r.to}] < mine[m].send {
					break
				}
				if r.from != noPeer {
					got, disjoint := hold[m].with(sends[pair{r.from, m}][mine[m].recv-1])
					if alg != dissemination && !disjoint {
						t.Fatalf("alg %d n=%d root=%d: member %d receives from %d what it already holds", alg, n, root, m, r.from)
					}
					hold[m] = got
				}
				at[m]++
				post(m)
				progress = true
			}
		}
	}
	for m := range rounds {
		if at[m] < len(rounds[m]) {
			t.Fatalf("alg %d n=%d root=%d: member %d waits forever in round %d on %+v", alg, n, root, m, at[m], rounds[m][at[m]])
		}
	}
	for p, posted := range sends {
		if len(posted) != recvs[p] {
			t.Fatalf("alg %d n=%d root=%d: %d sends %d→%d meet %d receives", alg, n, root, len(posted), p.from, p.to, recvs[p])
		}
	}

	for m, rs := range rounds {
		want := n // members heard from, contributions folded at the root
		switch alg {
		case dissemination:
			if len(rs) != bits.Len(uint(n-1)) {
				t.Fatalf("dissemination n=%d: member %d runs %d rounds, want ceil(log2 n) = %d", n, m, len(rs), bits.Len(uint(n-1)))
			}
		case binomialDown:
			want = 1
		case binomialUp:
			// Children in increasing mask order, then (but for the root) the parent.
			last := 0
			for i, r := range rs {
				d := (r.from - m + n) % n
				if isSend := r.to != noPeer; isSend != (m != root && i == len(rs)-1) || !isSend && d <= last {
					t.Fatalf("binomialUp n=%d root=%d: member %d round %d is %+v after mask %d", n, root, m, i, r, last)
				}
				last = d
			}
			if m != root {
				continue
			}
		}
		if got := hold[m].count(); got != want {
			t.Fatalf("alg %d n=%d root=%d: member %d ends holding %d of %d", alg, n, root, m, got, want)
		}
	}
}

// FuzzSchedulesPair drives the three partner sequences through the
// abstract executor: every send has its receive at the peer in the same
// per-pair order, blocking execution terminates, binomial-down reaches
// every member exactly once and only after it has received, binomial-up
// folds every contribution exactly once in increasing-mask order, and
// dissemination has every member transitively heard from all others after
// ceil(log2 n) rounds. The seed corpus runs under plain go test.
func FuzzSchedulesPair(f *testing.F) {
	for n := 1; n <= 33; n++ {
		for root := 0; root < n; root++ {
			f.Add(uint16(n), uint16(root))
		}
	}
	for _, n := range []int{1000, 1024, 4096} {
		for _, root := range []int{0, 1, n - 1} {
			f.Add(uint16(n), uint16(root))
		}
	}
	f.Fuzz(func(t *testing.T, nIn, rootIn uint16) {
		n := int(nIn)
		if n < 1 || n > 4096 {
			t.Skip()
		}
		root := int(rootIn) % n
		if root == 0 {
			checkSchedule(t, dissemination, n, 0) // rootless: once per n
		}
		checkSchedule(t, binomialDown, n, root)
		checkSchedule(t, binomialUp, n, root)
	})
}
