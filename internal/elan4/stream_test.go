package elan4

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
	"qsmpi/internal/simtime/rectest"
)

// An RDMA used to cost three kernel events, two copies through a pooled
// staging chunk and a boxed payload per packet. It is now one stream
// descriptor the receiving NIC walks with a cursor, copying source to
// destination once, and a non-final chunk is placed inside its fabric
// delivery with no placement timer. testdata/stream_golden.txt was recorded
// from the per-packet code (commit 2572dfe) before it was deleted: for the
// script below every DMACompleted and onError time, the end time and the
// time of every executed event, plus — "placed" — the instants of the
// placement timers of non-final chunks that placed their data, which are
// the only events the rework may delete. It must never be regenerated.
//
// The rework judges a non-final chunk when it arrives rather than one PCI
// write later, so a fault that hits while such a chunk is crossing the PCI
// bus no longer fails that chunk: the recording's "inpci" line names its
// placement timer and, for a write, the delivery of its error ack, and the
// replay must lack exactly those and the one error they reported (DESIGN
// §7, "RDMA streams").

// streamSizes are the transfer lengths of the per-size scenarios, in MTUs
// and bytes: nothing, one byte, one byte either side of a packet boundary
// and a long stream with a ragged tail.
func streamSizes(mtu int) []int { return []int{0, 1, mtu - 1, mtu, mtu + 1, 37*mtu + 5} }

// streamPattern fills a fresh buffer with a seed-dependent pattern that has
// no period dividing the MTU.
func streamPattern(n int, seed byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i*31+i/251) ^ seed
	}
	return buf
}

// streamXfer is one transfer of a scenario, so that the data can be checked
// once the kernel has run.
type streamXfer struct {
	what             string
	src, dst         []byte
	srcAddr, dstAddr E4Addr
}

type streamScenario struct {
	name string
	// run scripts the scenario and returns the transfers that must have
	// landed intact by the end.
	run func(b *engineBed) []streamXfer
}

// write scripts an RDMA write of n bytes from node `from` to node `to`
// issued by a host thread at time 0.
func (b *engineBed) write(from, to, n int, seed byte, onErr func(error)) streamXfer {
	x := streamXfer{what: fmt.Sprintf("write %d->%d", from, to), src: streamPattern(n, seed), dst: make([]byte, n)}
	x.srcAddr, x.dstAddr = b.ctx[from].Register(x.src), b.ctx[to].Register(x.dst)
	b.host[from].Spawn("w", func(th *simtime.Thread) {
		b.ctx[from].IssueRDMAWrite(th, to, x.srcAddr, x.dstAddr, n, nil, onErr)
	})
	return x
}

// read scripts an RDMA read of n bytes by node `by` from node `from`.
func (b *engineBed) read(by, from, n int, seed byte, onErr func(error)) streamXfer {
	x := streamXfer{what: fmt.Sprintf("read %d<-%d", by, from), src: streamPattern(n, seed), dst: make([]byte, n)}
	x.srcAddr, x.dstAddr = b.ctx[from].Register(x.src), b.ctx[by].Register(x.dst)
	b.host[by].Spawn("r", func(th *simtime.Thread) {
		b.ctx[by].IssueRDMARead(th, from, x.srcAddr, x.dstAddr, n, nil, onErr)
	})
	return x
}

// streamFaultAt is when the fault scenarios strike: a quarter of the way
// through the 38 chunks, with one of them crossing the receiving PCI bus.
const streamFaultAt = 23*simtime.Microsecond + 1

func streamScenarios() []streamScenario {
	var scs []streamScenario
	mtu := model.Default().MTU
	for _, n := range streamSizes(mtu) {
		scs = append(scs,
			streamScenario{fmt.Sprintf("write-%d", n), func(b *engineBed) []streamXfer {
				return []streamXfer{b.write(0, 3, n, 1, b.failAt(0))}
			}},
			streamScenario{fmt.Sprintf("read-%d", n), func(b *engineBed) []streamXfer {
				return []streamXfer{b.read(0, 3, n, 2, b.failAt(0))}
			}})
	}
	long := 37*mtu + 5
	return append(scs,
		// Two streams whose chunks interleave on one receive PCI bus: each
		// has its own cursor.
		streamScenario{"converge", func(b *engineBed) []streamXfer {
			return []streamXfer{
				b.write(0, 3, 5*mtu+7, 3, b.failAt(0)),
				b.write(1, 3, 6*mtu-7, 4, b.failAt(1)),
			}
		}},
		// Node 0's engine serves its own write, then the reply to node 3's
		// read, while the reply to its own read comes the other way.
		streamScenario{"write-crosses-read", func(b *engineBed) []streamXfer {
			return []streamXfer{
				b.write(0, 3, 6*mtu+3, 5, b.failAt(0)),
				b.read(0, 3, 3*mtu+11, 6, b.failAt(0)),
				b.read(3, 0, 4*mtu+9, 7, b.failAt(3)),
			}
		}},
		// The deposit time of a QDMA from a third node depends on the
		// receive-PCI clock the stream's untimed placements advance.
		streamScenario{"qdma-mid-stream", func(b *engineBed) []streamXfer {
			b.ctx[3].CreateQueue(1, 8)
			b.host[1].Sched().After(9*simtime.Microsecond, "script", func() {
				b.ctx[1].QDMAFromNIC(3, 1, []byte("mid-stream"), nil, b.failAt(1))
			})
			return []streamXfer{b.write(0, 3, 8*mtu, 8, b.failAt(0))}
		}},
		streamScenario{"close-mid-stream", func(b *engineBed) []streamXfer {
			b.write(0, 3, long, 9, b.failAt(0))
			b.host[3].Sched().After(streamFaultAt, "script", func() { b.ctx[3].Close() })
			return nil
		}},
		streamScenario{"unregister-mid-write", func(b *engineBed) []streamXfer {
			x := b.write(0, 3, long, 10, b.failAt(0))
			b.host[3].Sched().After(streamFaultAt, "script", func() { b.ctx[3].Unregister(x.dstAddr) })
			return nil
		}},
		streamScenario{"unregister-mid-read", func(b *engineBed) []streamXfer {
			x := b.read(0, 3, long, 11, b.failAt(0))
			b.host[0].Sched().After(streamFaultAt, "script", func() { b.ctx[0].Unregister(x.dstAddr) })
			return nil
		}},
	)
}

// streamRun replays one scenario and checks its data.
func streamRun(t *testing.T, shards int, sc streamScenario) rectest.Trace {
	var xfers []streamXfer
	tr := engineRun(t, shards, func(t *testing.T, b *engineBed) { xfers = sc.run(b) })
	for _, x := range xfers {
		if !bytes.Equal(x.dst, x.src) {
			t.Errorf("%s: %d bytes did not land intact", x.what, len(x.src))
		}
	}
	return tr
}

// TestStreamMatchesPerPacketRDMA replays the script without worker shards
// and on 2 and 4 against the recording of the per-packet code.
func TestStreamMatchesPerPacketRDMA(t *testing.T) {
	golden := rectest.Read(t, "testdata/stream_golden.txt")
	for _, sc := range streamScenarios() {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				rec := golden[sc.name]
				gone := rec["placed"]
				if inpci := rec["inpci"]; len(inpci) > 0 {
					// The chunk on the PCI bus when the fault struck, after
					// every chunk that was placed: its timer, its error ack
					// and its error are not replayed.
					rec = withoutFirstError(t, rec, inpci[len(inpci)-1])
					gone = slices.Concat(gone, inpci)
				}
				rectest.Compare(t, streamRun(t, shards, sc), rec, gone)
			})
		}
	}
}

// withoutFirstError returns rec with its first error dropped, which must be
// the one reported at instant at.
func withoutFirstError(t *testing.T, rec map[string][]string, at string) map[string][]string {
	t.Helper()
	errs := rec["errors"]
	if len(errs) == 0 || errs[0] != at+"@nic0" {
		t.Fatalf("recording's first error %v is not the in-PCI chunk's, at %s", errs, at)
	}
	out := maps.Clone(rec)
	out["errors"] = errs[1:]
	return out
}
