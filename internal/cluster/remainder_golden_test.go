package cluster_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/ptltcp"
	"qsmpi/internal/simtime"
	"qsmpi/internal/simtime/rectest"
	"qsmpi/internal/trace"
)

// testdata/remainder_golden.txt was printed by a throwaway test from the PML
// as it stood when it chose, per module, between one Put and a loop of
// in-band fragments for a rendezvous remainder. Never regenerate it: a
// change that means to move a picosecond of a remainder edits the cells it
// moves and says which. The seven "tcp" cells' trace hashes were edited
// once, when the TCP module stopped tracing rank -1 for its own rank; each
// new hash was first reproduced from the old stream with the ranks filled
// in.

// remainderCell is one two-rank ping-pong of size bytes over one transport
// configuration.
type remainderCell struct {
	config string
	spec   func() cluster.Spec
	size   int
}

func (c remainderCell) String() string {
	return fmt.Sprintf("@@ %s size=%d", c.config, c.size)
}

// remainderConfigs are the transport configurations a remainder can move
// over: sockets alone, Elan's write scheme beside TCP at three weights and
// with inlined rendezvous data, the read scheme beside TCP (the receiver
// pulls, no ACK reaches the sender) and two Elan rails.
var remainderConfigs = []struct {
	name string
	spec func() cluster.Spec
}{
	{"tcp", func() cluster.Spec { return cluster.Spec{TCP: &ptltcp.Options{}, Progress: pml.Polling} }},
	{"write+tcp w=0.1", func() cluster.Spec { return elanTCP(ptlelan4.RDMAWrite, false, 0.1) }},
	{"write+tcp w=0.15", func() cluster.Spec { return elanTCP(ptlelan4.RDMAWrite, false, 0.15) }},
	{"write+tcp w=0.5", func() cluster.Spec { return elanTCP(ptlelan4.RDMAWrite, false, 0.5) }},
	{"write+tcp w=0.5 inline", func() cluster.Spec { return elanTCP(ptlelan4.RDMAWrite, true, 0.5) }},
	{"read+tcp w=0.1", func() cluster.Spec { return elanTCP(ptlelan4.RDMARead, false, 0.1) }},
	{"write rails=2", func() cluster.Spec {
		o := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
		return cluster.Spec{Elan: &o, ElanRails: 2, Progress: pml.Polling}
	}},
}

func elanTCP(scheme ptlelan4.Scheme, inline bool, w float64) cluster.Spec {
	o := ptlelan4.BestOptions(scheme)
	o.InlineRndv = inline
	return cluster.Spec{Elan: &o, TCP: &ptltcp.Options{Weight: w}, Progress: pml.Polling}
}

func remainderCells() []remainderCell {
	var cells []remainderCell
	for _, cfg := range remainderConfigs {
		for _, size := range []int{0, 1985, 65536, 65537, 200000, 1 << 20, 4 << 20} {
			cells = append(cells, remainderCell{cfg.name, cfg.spec, size})
		}
	}
	return cells
}

// render runs the cell and prints what it pins: both ranks' completion
// times, the kernel's event count, each rank's RDMA writes per Elan rail and
// TCP messages and bytes sent, whether both payloads arrived intact, and an
// FNV-64a of the whole cross-layer trace.
func (c remainderCell) render(t testing.TB) string {
	rec := trace.NewRecorder(0)
	spec := c.spec()
	spec.Tracer = rec
	cl := cluster.New(spec, 2)
	done := make([]simtime.Time, 2)
	procs := make([]*cluster.Proc, 2)
	intact := true
	cl.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(c.size)
		out, in := make([]byte, c.size), make([]byte, c.size)
		for i := range out {
			out[i] = byte(i*7 + p.Rank)
		}
		peer := 1 - p.Rank
		if p.Rank == 0 {
			p.Stack.Send(p.Th, peer, 1, 0, out, dt).Wait(p.Th)
			p.Stack.Recv(p.Th, peer, 2, 0, in, dt).Wait(p.Th)
		} else {
			p.Stack.Recv(p.Th, peer, 1, 0, in, dt).Wait(p.Th)
			p.Stack.Send(p.Th, peer, 2, 0, out, dt).Wait(p.Th)
		}
		for i := range in {
			if in[i] != byte(i*7+peer) {
				intact = false
				break
			}
		}
		done[p.Rank] = p.Th.Now()
		procs[p.Rank] = p
	})
	if err := cl.Run(); err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "done_ps %d %d\nsteps %d\n", int64(done[0]), int64(done[1]), cl.K.Steps())
	for _, p := range procs {
		fmt.Fprintf(&b, "rank %d puts", p.Rank)
		for _, m := range p.Elans {
			fmt.Fprintf(&b, " %d", m.Stats().PutOps)
		}
		if p.TCP != nil {
			st := p.TCP.Stats()
			fmt.Fprintf(&b, " tcp_msgs %d tcp_bytes %d", st.MsgsTx, st.BytesTx)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "intact %v\ntrace %s\n", intact, remainderTraceFNV(rec))
	return b.String()
}

// remainderTraceFNV hashes every field of every traced event, in order.
func remainderTraceFNV(rec *trace.Recorder) string {
	h := fnv.New64a()
	var word [8]byte
	for e := range rec.All() {
		for _, v := range []uint64{uint64(e.At), uint64(e.Rank), uint64(e.Layer), uint64(e.Kind),
			e.ReqID, uint64(e.Peer), uint64(e.Tag), uint64(e.Bytes), e.Corr} {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), rec.Len())
}

// TestRemainderGolden replays every cell through today's PML and modules
// and holds each to the bytes recorded before the modules alone decided how
// a remainder's bytes move.
func TestRemainderGolden(t *testing.T) {
	rectest.Replay(t, "testdata/remainder_golden.txt", remainderCells(), func(c remainderCell) string { return c.render(t) })
}
