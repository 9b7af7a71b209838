package simtime

import (
	"math/rand"
	"testing"
	"unsafe"
)

// queueOpTime decodes the arg of one (op, arg) pair of a FuzzEventQueue
// program against a clock at now: the time a push goes to, or the time an
// advance moves the clock to.
// Small args give delays of 0–3 ps (ties, and pushes at now itself), the
// middle range 100 ps steps up to 6.4 ns, and the top range the next
// multiple of 2^k above now, k < 48, so pushes cross power-of-two
// boundaries of the clock and land on the same boundary together.
func queueOpTime(now Time, arg byte) Time {
	switch {
	case arg < 0x80:
		return now + Time(arg%4)
	case arg < 0xc0:
		return now + Time(arg-0x7f)*100
	}
	k := uint(arg-0xc0) % 48
	return (now>>k + 1) << k
}

// runQueueProgram drives an eventQueue with prog and checks every step
// against a reference that scans a plain slice for the least (at, seq):
// pop and peek return that event, firm counts the non-cancelable ones and
// procs the proc events. Ops: push a callback, push a proc wake, push a
// cancelable callback, pop, peek, advance the clock without a
// pop (as in-place wakes do; never past the next event),
// clear, mark, push under the mark. Pushes take increasing seqs, 1024
// apart; a push under the mark takes one just above the seq current at
// the latest mark, below every push since — as a commit replayed at an
// epoch barrier schedules below the strided seqs of the epoch.
func runQueueProgram(t *testing.T, prog []byte) {
	var q eventQueue
	var ref []event
	var now Time
	var seq, mark, under int64
	least := func() int {
		m := 0
		for i := range ref {
			if ref[i].at < ref[m].at || ref[i].at == ref[m].at && ref[i].seq < ref[m].seq {
				m = i
			}
		}
		return m
	}
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%9, prog[pc+1]
		switch op {
		case 0, 1, 2, 8:
			e := event{at: queueOpTime(now, arg), kind: [...]eventKind{kindCall, kindWake, kindCancelable, 8: kindCall}[op]}
			if op == 8 {
				under++
				e.seq = mark + under
			} else {
				seq += 1024
				e.seq = seq
			}
			q.push(e)
			ref = append(ref, e)
		case 3:
			if len(ref) == 0 {
				continue
			}
			m := least()
			var got event
			q.pop(&got)
			want := ref[m]
			if got.at != want.at || got.seq != want.seq || got.kind != want.kind {
				t.Fatalf("op %d: pop = (%d, %d, %v), want (%d, %d, %v)", pc/2, got.at, got.seq, got.kind, want.at, want.seq, want.kind)
			}
			ref = append(ref[:m], ref[m+1:]...)
			now = got.at
		case 4:
			got := q.peek()
			if len(ref) == 0 {
				if got != nil {
					t.Fatalf("op %d: peek on an empty queue = (%d, %d)", pc/2, got.at, got.seq)
				}
				continue
			}
			if want := ref[least()]; got == nil || got.at != want.at || got.seq != want.seq {
				t.Fatalf("op %d: peek = %+v, want (%d, %d)", pc/2, got, want.at, want.seq)
			}
		case 5:
			now = queueOpTime(now, arg)
			if len(ref) > 0 {
				now = min(now, ref[least()].at)
			}
		case 6:
			q.clear()
			ref = ref[:0]
		case 7:
			mark = seq
		}
		firm, procs := 0, 0
		for i := range ref {
			if ref[i].kind != kindCancelable {
				firm++
			}
			if ref[i].kind == kindWake {
				procs++
			}
		}
		if q.firm() != firm || q.procs() != procs || q.empty() != (len(ref) == 0) {
			t.Fatalf("op %d: firm %d, procs %d, empty %v; want %d and %d of %d pending", pc/2, q.firm(), q.procs(), q.empty(), firm, procs, len(ref))
		}
	}
}

// TestEventIsFiftySixBytes: the kind byte sits in the event's padding, so
// the slab holds as many events per byte as before it.
func TestEventIsFiftySixBytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 56 {
		t.Fatalf("an event is %d bytes, want 56", n)
	}
}

// FuzzEventQueue holds the radix queue to a sort by (at, seq) under random
// interleavings of pushes (many at one instant, at now, across power-of-two
// boundaries, under seqs already pending), pops, peeks, clock advances and
// clears. The seed corpus runs under plain `go test`.
func FuzzEventQueue(f *testing.F) {
	const push, cancelable, pop, peek, advance, drop, mark, under = 0, 2, 3, 4, 5, 6, 7, 8
	at := func(k byte) byte { return 0xc0 + k } // the next multiple of 2^k
	hundreds := func(n byte) byte { return 0x7f + n }
	// Equal-time events in a high bucket, apart in seq: the ones at 4096
	// sit in bucket 13 among later times, one more is pushed there after a
	// pop has moved last to 3000, and they must leave in seq order.
	f.Add([]byte{push, at(12), push, hundreds(30), push, at(12), push, hundreds(45), push, at(12),
		cancelable, at(12), pop, 0, push, at(12), push, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0})
	// A peek reads the least event without moving its bucket down; pushes
	// below it, in its bucket and in a lower one, must still pop first.
	f.Add([]byte{push, at(12), push, hundreds(30), peek, 0, push, hundreds(21), peek, 0,
		push, hundreds(10), pop, 0, pop, 0, pop, 0, pop, 0})
	// The clock advanced past the latest pop, then pushes at the new now.
	f.Add([]byte{push, at(20), push, 1, pop, 0, advance, at(19), push, 0, push, 0, push, at(19), pop, 0, pop, 0, pop, 0, pop, 0})
	// Pushes under the mark tie pending events at 4096, in bucket 13 among
	// a later time: they take the least seqs there, and when the bucket
	// moves down they reach bucket 0 out of seq order.
	f.Add([]byte{mark, 0, push, at(12), push, at(12), push, hundreds(50), under, at(12), under, at(12),
		pop, 0, pop, 0, pop, 0, pop, 0, pop, 0})
	// The same at last itself: pushes under the mark go before bucket 0's
	// head, then between two of its events.
	f.Add([]byte{push, 1, pop, 0, mark, 0, push, 0, push, 0, under, 0, under, 0, pop, 0, pop, 0, pop, 0, pop, 0})
	// A peek, then a push under the mark at the peeked time.
	f.Add([]byte{mark, 0, push, hundreds(30), peek, 0, under, hundreds(30), peek, 0, pop, 0, pop, 0})
	// Cancel-on-idle events left alone, cleared, and the queue reused.
	f.Add([]byte{cancelable, 3, push, at(40), cancelable, 0, pop, 0, drop, 0, push, 1, pop, 0, pop, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		prog := make([]byte, 2+2*rng.Intn(64))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			t.Skip()
		}
		runQueueProgram(t, prog)
	})
}

// TestQueueAllocatesNothingAcrossNewPowersOfTwo warms a kernel up, then runs
// timer chains across a power of two of the clock it has never reached, a
// higher one every run, from 2^35 ps up: a queue that gave each bucket
// storage of its own would allocate the first time a bucket fills.
func TestQueueAllocatesNothingAcrossNewPowersOfTwo(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	const chains, links = 64, 32
	left := 0
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			k.After(50, "tick", tick)
		}
	}
	start := func() {
		left = chains * links
		for i := 0; i < chains; i++ {
			k.After(Duration(i+1), "tick", tick)
		}
	}
	power := 34
	cross := func() {
		k.At(Time(1)<<power-1000, "start", start)
		k.Run()
		power++
	}
	cross()
	if n := testing.AllocsPerRun(5, cross); n != 0 {
		t.Fatalf("%v allocations per run of timer chains across 2^%d", n, power-1)
	}
	if steps := k.Steps(); steps != 7*(1+chains+chains*links) {
		t.Fatalf("%d steps, want %d", steps, 7*(1+chains+chains*links))
	}
}
