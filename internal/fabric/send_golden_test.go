package fabric

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qsmpi/internal/simtime"
)

// The fabric used to carry two send paths: Send/SendMulti walked the whole
// path at once on a plain kernel, and a split form (up-link inline, shared
// remainder committed) ran under worker shards. Only the split form is
// left, and it is only legal if it books every link at the instant, and in
// the order, the whole-path walk did. testdata/send_golden.txt was recorded
// from the whole-path Send and SendMulti before they were deleted: every
// delivery and onWire time in picoseconds, the retransmit count and the
// per-port counters of the script below, clean and at two loss rates. The
// lossy path has no benchmark workload, so this file is its only timing
// pin. It must never be regenerated from the code it checks.

const goldenPorts = 16 // arity 4: two switch levels

var goldenLossRates = []float64{0, 0.05, 0.3}

// sendScript runs the seeded script on a kernel with the given number of
// worker shards (0: none), never leaving the sequential phase, and renders
// everything observable about it. Port i is entity i+1 and every send is
// an event of its source port's entity, so under workers the same-instant
// sends sit in different shards' heaps.
func sendScript(workers int, loss float64) string {
	p := Params{
		LinkBandwidth:  1e9,
		WireLatency:    simtime.Micros(0.1),
		SwitchLatency:  simtime.Micros(0.15),
		MTU:            2048,
		PacketOverhead: 24,
		Arity:          4,
		LossRate:       loss,
		RetryDelay:     simtime.Micros(0.5),
	}
	k := simtime.NewKernel()
	defer k.Close()
	k.Shard(simtime.ShardPlan{
		Workers:   workers,
		Owner:     func(e simtime.Entity) int { return (int(e)-1)*workers/goldenPorts + 1 },
		Lookahead: p.WireLatency,
	})
	net := New(k, p, goldenPorts)
	var b strings.Builder
	sched := func(port int) simtime.Sched { return k.SchedFor(simtime.Entity(port + 1)) }
	for i := 0; i < goldenPorts; i++ {
		sc := sched(i)
		net.BindPort(i, sc, nil)
		net.Attach(i, func(pk *Packet) {
			fmt.Fprintf(&b, "deliver %d %d->%d size=%d id=%v\n", int64(sc.Now()), pk.Src, pk.Dst, pk.Size, pk.Payload)
		})
	}
	onWire := func(port int, id string) func() {
		sc := sched(port)
		return func() { fmt.Fprintf(&b, "onwire %d port=%d id=%s\n", int64(sc.Now()), port, id) }
	}
	at := func(us float64) simtime.Time { return simtime.Time(simtime.Micros(us)) }
	send := func(t simtime.Time, src, dst, size int, id string) {
		sched(src).At(t, "send:"+id, func() {
			net.Send(&Packet{Src: src, Dst: dst, Size: size, Payload: id}, onWire(src, id))
		})
	}
	multi := func(t simtime.Time, src, size int, dsts []int, id string) {
		sched(src).At(t, "multi:"+id, func() {
			net.SendMulti(src, size, dsts, func(dst int) any { return fmt.Sprintf("%s.%d", id, dst) }, onWire(src, id))
		})
	}
	rng := rand.New(rand.NewSource(7))

	// (a) 64 flows injected at one instant, four per port, contending on
	// the up-links, the fat links under the root and the down-links.
	for i := 0; i < 64; i++ {
		src := i % goldenPorts
		dst := rng.Intn(goldenPorts - 1)
		if dst >= src {
			dst++
		}
		send(at(1), src, dst, rng.Intn(p.MTU+1), fmt.Sprintf("a%d", i))
	}
	// (b) Multicasts — one to every port, itself included, one to a subset
	// across the root — overlapping unicast traffic on the same links.
	all := make([]int, goldenPorts)
	for i := range all {
		all[i] = i
	}
	send(at(40), 2, 9, 1500, "b0")
	send(at(40), 5, 2, 700, "b1")
	multi(at(40), 2, 1024, all, "bm0")
	send(at(40), 2, 14, 64, "b2")
	send(at(40), 6, 10, 2048, "b3")
	multi(at(40.2), 13, 300, []int{12, 13, 1, 7}, "bm1")
	send(at(40.2), 12, 13, 900, "b4")
	send(at(40.3), 1, 13, 0, "b5")
	// (c) Loopback: unicast with and without a callback, and a multicast
	// whose only destination is its source.
	send(at(60), 4, 4, 512, "c0")
	sched(4).At(at(60), "send:c1", func() { net.Send(&Packet{Src: 4, Dst: 4, Size: 0, Payload: "c1"}, nil) })
	multi(at(60), 7, 128, []int{7}, "cm0")
	k.Run()

	fmt.Fprintf(&b, "end %d retransmits=%d\n", int64(k.Now()), net.Retransmits())
	for i := 0; i < goldenPorts; i++ {
		fmt.Fprintf(&b, "port%d %+v\n", i, net.PortCounters(i))
	}
	return b.String()
}

// goldenSection returns the part of the golden file recorded at loss.
func goldenSection(t *testing.T, loss float64) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/send_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(raw), fmt.Sprintf("== loss %v ==\n", loss))
	if !ok {
		t.Fatalf("no section for loss %v in the golden file", loss)
	}
	section, _, _ := strings.Cut(rest, "== loss ")
	return section
}

func TestSendMatchesWholePathSend(t *testing.T) {
	for _, loss := range goldenLossRates {
		for _, workers := range []int{0, 2} {
			if workers > 0 && loss > 0 {
				continue // loss draws have no shard-independent order: refused by New
			}
			t.Run(fmt.Sprintf("loss=%v/workers=%d", loss, workers), func(t *testing.T) {
				got, want := sendScript(workers, loss), goldenSection(t, loss)
				if got == want {
					return
				}
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				i := 0
				for i < len(g) && i < len(w) && g[i] == w[i] {
					i++
				}
				t.Fatalf("first difference at line %d of %d (recorded: %d):\n     got %q\nrecorded %q",
					i+1, len(g), len(w), strings.Join(g[i:min(i+1, len(g))], ""), strings.Join(w[i:min(i+1, len(w))], ""))
			})
		}
	}
}
