package mpi_test

import (
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

// testdata/wait_golden.txt was printed by a throwaway test from the bare
// waits as they stood before they became calls of pml.Stack.Block (Probe's,
// Finalize's, Waitany's and Fence's own sweep-and-wait loops). Never
// regenerate it: a change that means to move a picosecond of a blocking
// call edits the cells it moves and says which.

// waitCell is one simulation of the golden: one blocking call whose event
// lands before the call (early: the waiter computes first) or while the
// call blocks (late: the peer computes first), under one of Table 1's
// progress modes.
type waitCell struct {
	site  string
	run   func(p *cluster.Proc, w *mpi.World, early bool) string
	n     int
	early bool
	row   string
}

func (c waitCell) String() string {
	shape := "late"
	if c.early {
		shape = "early"
	}
	return fmt.Sprintf("@@ %s n=%d shape=%s row=%s", c.site, c.n, shape, c.row)
}

// lag is how long the side that goes second computes first.
const lag = 30 * simtime.Microsecond

// after computes for lag when cond holds.
func after(w *mpi.World, cond bool) {
	if cond {
		w.Thread().Compute(lag)
	}
}

// waitSites maps a bare wait site to its body on n ranks: run it on one
// rank and return what that rank observed ("" for nothing).
var waitSites = []struct {
	name string
	n    int
	run  func(p *cluster.Proc, w *mpi.World, early bool) string
}{
	{"Probe", 2, func(_ *cluster.Proc, w *mpi.World, early bool) string {
		if w.Rank() == 1 {
			after(w, !early)
			w.Comm().Send(0, 7, make([]byte, 3000), datatype.Contiguous(3000))
			return ""
		}
		after(w, early)
		st := w.Comm().Probe(mpi.AnySource, 7)
		w.Comm().Recv(st.Source, st.Tag, make([]byte, st.Len), datatype.Contiguous(st.Len))
		return fmt.Sprintf("%d/%d/%d", st.Source, st.Tag, st.Len)
	}},
	{"Waitany", 3, func(_ *cluster.Proc, w *mpi.World, early bool) string {
		if w.Rank() > 0 {
			if w.Rank() == 1 {
				after(w, !early)
			} else {
				w.Thread().Compute(2 * lag)
			}
			n := 64 * w.Rank()
			w.Comm().Send(0, w.Rank(), make([]byte, n), datatype.Contiguous(n))
			return ""
		}
		r1 := w.Comm().Irecv(1, 1, make([]byte, 64), datatype.Contiguous(64))
		r2 := w.Comm().Irecv(2, 2, make([]byte, 128), datatype.Contiguous(128))
		after(w, early)
		i, st := mpi.Waitany(r1, nil, r2)
		mpi.Waitall(r1, r2)
		return fmt.Sprintf("%d:%d/%d/%d", i, st.Source, st.Tag, st.Len)
	}},
	{"Fence", 2, func(_ *cluster.Proc, w *mpi.World, early bool) string {
		base := make([]byte, 8192)
		win := w.Comm().WinCreate(base)
		if w.Rank() == 0 {
			data := make([]byte, 8192)
			for i := range data {
				data[i] = byte(i * 13)
			}
			win.Put(1, 0, data)
			after(w, early)
		}
		win.Fence()
		h := fnv.New64a()
		h.Write(base)
		return fmt.Sprintf("%016x", h.Sum64())
	}},
	{"Finalize", 2, func(p *cluster.Proc, w *mpi.World, early bool) string {
		small, large := datatype.Contiguous(64), datatype.Contiguous(8192)
		if w.Rank() == 1 {
			after(w, !early)
			w.Comm().Recv(0, 3, make([]byte, 64), small)
			w.Comm().Recv(0, 4, make([]byte, 8192), large)
			return ""
		}
		p.Stack.Send(p.Th, 1, 3, 0, make([]byte, 64), small)
		p.Stack.Send(p.Th, 1, 4, 0, make([]byte, 8192), large)
		after(w, early)
		p.Stack.Finalize(p.Th)
		return fmt.Sprint(p.Stack.PendingSends())
	}},
}

func waitCells() []waitCell {
	var cells []waitCell
	for _, s := range waitSites {
		for _, early := range []bool{true, false} {
			for _, row := range []string{"basic", "interrupt", "one-thread", "two-threads"} {
				cells = append(cells, waitCell{s.name, s.run, s.n, early, row})
			}
		}
	}
	return cells
}

// render runs the cell and prints what it pins: every rank's return time,
// the kernel's event count, every rank's progress and idle time (idle
// booking is part of what distinguishes a bare wait), what every rank
// observed, and an FNV-64a of the whole traced event stream.
func (c waitCell) render(t testing.TB) string {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	rec := trace.NewRecorder(0)
	spec, err := cluster.Spec{Elan: &opts, DTP: true, Tracer: rec}.WithProgressRow(c.row)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(spec, c.n)
	uni := mpi.NewUniverse()
	ret := make([]simtime.Time, c.n)
	procs := make([]*cluster.Proc, c.n)
	seen := make([]string, c.n)
	cl.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, c.n)
		seen[p.Rank] = c.run(p, w, c.early)
		ret[p.Rank] = p.Th.Now()
		procs[p.Rank] = p
	})
	if err := cl.Run(); err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	var b strings.Builder
	b.WriteString("ret_ps")
	for _, at := range ret {
		fmt.Fprintf(&b, " %d", int64(at))
	}
	fmt.Fprintf(&b, "\nsteps %d\nprogress_ps", cl.K.Steps())
	for _, p := range procs {
		fmt.Fprintf(&b, " %d", int64(p.Stack.ProgressTime()))
	}
	b.WriteString("\nidle_ps")
	for _, p := range procs {
		fmt.Fprintf(&b, " %d", int64(p.Stack.IdleTime()))
	}
	b.WriteString("\nseen")
	for _, s := range seen {
		if s == "" {
			s = "-"
		}
		fmt.Fprintf(&b, " %s", s)
	}
	fmt.Fprintf(&b, "\ntrace %s\n", traceFNV(rec))
	return b.String()
}

// TestWaitGolden replays every cell of the golden through today's blocking
// calls and holds each to the bytes recorded from the loops they replaced.
func TestWaitGolden(t *testing.T) {
	rectest.Replay(t, "testdata/wait_golden.txt", waitCells(), func(c waitCell) string { return c.render(t) })
}
