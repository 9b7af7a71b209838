package mpi_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/simtime/rectest"
	"qsmpi/internal/trace"
)

// testdata/coll_golden.txt was printed by a throwaway test from the
// collectives as they stood before they became schedules (the three
// hand-built NBC state machines, Bcast's and Reduce's own loops). Never
// regenerate it: a change that means to move a partner, a tag, a posting
// order or a picosecond edits the cells it moves and says which. The
// Alltoall cells were appended later, printed by Alltoall's own loops
// before it became Alltoallv with uniform counts.

// collCell is one simulation of the golden: one collective, once, on the
// world communicator of n ranks under one of Table 1's progress modes.
type collCell struct {
	op   string
	run  func(w *mpi.World, root int) []byte
	n    int
	root int
	row  string
}

func (c collCell) String() string {
	return fmt.Sprintf("@@ %s n=%d root=%d row=%s", c.op, c.n, c.root, c.row)
}

// collOps maps an operation name to its body: run the collective on w and
// return this rank's result bytes. rooted says whether root is an argument
// (the others run once, at root 0).
var collOps = []struct {
	name   string
	rooted bool
	run    func(w *mpi.World, root int) []byte
}{
	{"Barrier", false, func(w *mpi.World, _ int) []byte {
		w.Comm().Barrier()
		return nil
	}},
	{"Bcast/8", true, func(w *mpi.World, root int) []byte { return bcastCell(w, root, 8, false, false) }},
	{"Bcast/3000", true, func(w *mpi.World, root int) []byte { return bcastCell(w, root, 3000, false, false) }},
	{"Reduce", true, func(w *mpi.World, root int) []byte {
		recv := make([]byte, 16)
		w.Comm().Reduce(root, contribution(w.Rank()), recv, mpi.OpSumF64)
		return recv
	}},
	{"Allreduce", false, func(w *mpi.World, _ int) []byte {
		recv := make([]byte, 16)
		w.Comm().Allreduce(contribution(w.Rank()), recv, mpi.OpSumF64)
		return recv
	}},
	{"Allgather", false, func(w *mpi.World, _ int) []byte {
		recv := make([]byte, 4*w.Size())
		w.Comm().Allgather([]byte{byte(w.Rank()), 0xa5, byte(w.Size()), 1}, recv)
		return recv
	}},
	{"ReduceScatter", false, func(w *mpi.World, _ int) []byte {
		send := make([]byte, 0, 8*w.Size())
		for j := 0; j < w.Size(); j++ {
			send = append(send, f64buf(1/float64(w.Rank()+j+3))...)
		}
		recv := make([]byte, 8)
		w.Comm().ReduceScatter(send, recv, mpi.OpSumF64)
		return recv
	}},
	{"Alltoall", false, func(w *mpi.World, _ int) []byte {
		send := make([]byte, 0, 8*w.Size())
		for j := 0; j < w.Size(); j++ {
			send = append(send, f64buf(float64(w.Rank()*100+j))...)
		}
		recv := make([]byte, len(send))
		w.Comm().Alltoall(send, recv)
		return recv
	}},
	{"Ibarrier/wait", false, func(w *mpi.World, _ int) []byte {
		w.Comm().Ibarrier().Wait()
		return nil
	}},
	{"Ibarrier/overlap", false, func(w *mpi.World, _ int) []byte {
		overlapped(w, w.Comm().Ibarrier())
		return nil
	}},
	{"Ibcast/wait", true, func(w *mpi.World, root int) []byte { return bcastCell(w, root, 3000, true, false) }},
	{"Ibcast/overlap", true, func(w *mpi.World, root int) []byte { return bcastCell(w, root, 3000, true, true) }},
	{"Iallreduce/wait", false, func(w *mpi.World, _ int) []byte {
		recv := make([]byte, 16)
		w.Comm().Iallreduce(contribution(w.Rank()), recv, mpi.OpSumF64).Wait()
		return recv
	}},
	{"Iallreduce/overlap", false, func(w *mpi.World, _ int) []byte {
		recv := make([]byte, 16)
		overlapped(w, w.Comm().Iallreduce(contribution(w.Rank()), recv, mpi.OpSumF64))
		return recv
	}},
	// A blocking collective between post and wait: the barrier's tag is
	// claimed after both of the allreduce's, and its waits sweep the
	// schedule forward.
	{"Iallreduce+Barrier", false, func(w *mpi.World, _ int) []byte {
		recv := make([]byte, 16)
		ar := w.Comm().Iallreduce(contribution(w.Rank()), recv, mpi.OpSumF64)
		w.Comm().Barrier()
		ar.Wait()
		return recv
	}},
	// Two schedules in flight on one communicator, waited in either order
	// (ROADMAP 2(f)): one schedule's arrivals land while the other's wait
	// sweeps the hooks. With the activity word read after the sweep, the
	// basic row deadlocked at n = 3 in post order and at n = 5, 8 and 13
	// swapped. Recorded from n = 3 up.
	{"Iallreduce+Ibarrier", false, func(w *mpi.World, _ int) []byte {
		recv := make([]byte, 16)
		ar := w.Comm().Iallreduce(contribution(w.Rank()), recv, mpi.OpSumF64)
		b := w.Comm().Ibarrier()
		ar.Wait()
		b.Wait()
		return recv
	}},
	{"Iallreduce+Ibarrier/swapped", false, func(w *mpi.World, _ int) []byte {
		recv := make([]byte, 16)
		ar := w.Comm().Iallreduce(contribution(w.Rank()), recv, mpi.OpSumF64)
		b := w.Comm().Ibarrier()
		b.Wait()
		ar.Wait()
		return recv
	}},
}

// contribution is a rank's two-element float64 vector; the first element
// sums to different bits under different combine orders.
func contribution(rank int) []byte {
	return append(f64buf(1/float64(rank+3)), f64buf(float64(rank+1)*1.25)...)
}

func bcastCell(w *mpi.World, root, size int, nonblocking, overlap bool) []byte {
	buf := make([]byte, size)
	if w.Rank() == root {
		for i := range buf {
			buf[i] = byte(i*7 + root + 1)
		}
	}
	dt := datatype.Contiguous(size)
	switch {
	case !nonblocking:
		w.Comm().Bcast(root, buf, dt)
	case overlap:
		overlapped(w, w.Comm().Ibcast(root, buf, dt))
	default:
		w.Comm().Ibcast(root, buf, dt).Wait()
	}
	return buf
}

// overlapped waits on a posted schedule after 5 µs of computation, with a
// ring send and receive pending beside it on the same matching engine.
func overlapped(w *mpi.World, nbc *mpi.Request) {
	n, me := w.Size(), w.Rank()
	dt := datatype.Contiguous(1)
	got := make([]byte, 1)
	rq := w.Comm().Irecv((me+n-1)%n, 99, got, dt)
	sq := w.Comm().Isend((me+1)%n, 99, []byte{byte(me)}, dt)
	w.Thread().Compute(5 * simtime.Microsecond)
	nbc.Wait()
	sq.Wait()
	rq.Wait()
}

func collCells() []collCell {
	var cells []collCell
	for _, op := range collOps {
		ns := []int{1, 2, 3, 5, 8, 13}
		if strings.HasPrefix(op.name, "Iallreduce+Ibarrier") {
			ns = ns[2:]
		}
		for _, n := range ns {
			roots := []int{0}
			if op.rooted && n > 1 {
				roots = append(roots, n-1)
			}
			for _, root := range roots {
				for _, row := range []string{"basic", "interrupt", "one-thread", "two-threads"} {
					cells = append(cells, collCell{op.name, op.run, n, root, row})
				}
			}
		}
	}
	return cells
}

// render runs the cell and prints what it pins: every rank's return time,
// the kernel's event count, every rank's result (as an FNV-64a when longer
// than 64 bytes) and an FNV-64a of the whole traced event stream, so that
// partners, tags, posting order and NBCPhase indices are all held.
func (c collCell) render(t testing.TB) string {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	rec := trace.NewRecorder(0)
	spec, err := cluster.Spec{Elan: &opts, DTP: true, Tracer: rec}.WithProgressRow(c.row)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(spec, c.n)
	uni := mpi.NewUniverse()
	ret := make([]simtime.Time, c.n)
	results := make([][]byte, c.n)
	cl.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, c.n)
		results[p.Rank] = c.run(w, c.root)
		ret[p.Rank] = p.Th.Now()
	})
	if err := cl.Run(); err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	var b strings.Builder
	b.WriteString("ret_ps")
	for _, at := range ret {
		fmt.Fprintf(&b, " %d", int64(at))
	}
	fmt.Fprintf(&b, "\nsteps %d\nresult", cl.K.Steps())
	for _, r := range results {
		switch {
		case len(r) == 0:
			b.WriteString(" -")
		case len(r) <= 64:
			fmt.Fprintf(&b, " %x", r)
		default:
			h := fnv.New64a()
			h.Write(r)
			fmt.Fprintf(&b, " fnv:%016x/%d", h.Sum64(), len(r))
		}
	}
	fmt.Fprintf(&b, "\ntrace %s\n", traceFNV(rec))
	return b.String()
}

// traceFNV is an FNV-64a of every field of every recorded event, and the
// event count.
func traceFNV(rec *trace.Recorder) string {
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

// replay is render with a panic inside the simulation (two members
// disagreeing on a tag end in one) reported as the cell's output, so the
// cell is named and the rest still run.
func (c collCell) replay(t testing.TB) (got string) {
	defer func() {
		if r := recover(); r != nil {
			got, _, _ = strings.Cut(fmt.Sprint("panic: ", r), "\n")
		}
	}()
	return c.render(t)
}

// TestCollGolden replays every cell of the golden through today's
// collectives and holds each to the bytes recorded from the code they
// replaced.
func TestCollGolden(t *testing.T) {
	rectest.Replay(t, "testdata/coll_golden.txt", collCells(), func(c collCell) string { return c.replay(t) })
}
