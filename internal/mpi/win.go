package mpi

import (
	"encoding/binary"
	"fmt"

	"qsmpi/internal/elan4"
	"qsmpi/internal/ptl"
)

// Win is an MPI-2 one-sided communication window: a region of each
// member's memory exposed for remote Put/Get, synchronized with Fence
// (active-target). Operations ride the transport's raw RDMA path — the
// target's CPU is not involved between fences, which is exactly what the
// Quadrics RDMA engines provide (cf. the MVAPICH2 one-sided work the
// paper's related-work section cites).
type Win struct {
	c    *Comm
	base []byte
	// remote[i] is member i's exposed base in network addressing.
	remote []elan4.E4Addr
	rma    ptl.RMACapable

	epochOpen   bool
	outstanding int
	completions int
	fences      int
}

// WinCreate collectively exposes base on every member of the communicator
// and returns the window. The communicator's stack must include an
// RDMA-capable module (Quadrics); TCP-only configurations cannot provide
// true one-sided semantics and panic here.
func (c *Comm) WinCreate(base []byte) *Win {
	var rma ptl.RMACapable
	for _, m := range c.w.stack.Modules() {
		if r, ok := m.(ptl.RMACapable); ok {
			rma = r
			break
		}
	}
	if rma == nil {
		panic("mpi: WinCreate requires an RDMA-capable transport (Quadrics)")
	}
	w := &Win{c: c, base: base, rma: rma}
	myE4 := rma.RegisterMem(base)
	enc := make([]byte, 8)
	binary.LittleEndian.PutUint64(enc, uint64(myE4))
	all := make([]byte, 8*c.Size())
	c.Allgather(enc, all)
	w.remote = make([]elan4.E4Addr, c.Size())
	for i := range w.remote {
		w.remote[i] = elan4.E4Addr(binary.LittleEndian.Uint64(all[i*8:]))
	}
	// The window opens with an access epoch so Put/Get may follow
	// immediately after creation, matching the common fence idiom.
	w.epochOpen = true
	return w
}

// Comm returns the communicator the window spans.
func (w *Win) Comm() *Comm { return w.c }

func (w *Win) requireEpoch(op string) {
	if !w.epochOpen {
		panic(fmt.Sprintf("mpi: %s outside an access epoch (call Fence first)", op))
	}
}

func (w *Win) peer(rank int) *ptl.Peer {
	wr := w.c.worldOf(rank)
	if wr == w.c.w.rank {
		return nil
	}
	p, ok := w.c.w.stack.Peer(wr)
	if !ok {
		panic(fmt.Sprintf("mpi: window member %d not connected", rank))
	}
	return p
}

// Put writes data into member dst's window at byte offset off. Completion
// is deferred to the next Fence.
func (w *Win) Put(dst, off int, data []byte) {
	w.requireEpoch("Put")
	if off < 0 || off+len(data) > len(w.base) {
		// All windows are symmetric in this implementation; bounds are
		// checked against the local window length, and the target's MMU
		// enforces the real bound.
		panic(fmt.Sprintf("mpi: Put [%d,%d) outside window of %d", off, off+len(data), len(w.base)))
	}
	if p := w.peer(dst); p != nil {
		w.outstanding++
		cp := append([]byte(nil), data...)
		w.rma.RawPut(w.c.w.th, p, cp, w.remote[dst], off, func() {
			w.completions++
		})
		return
	}
	copy(w.base[off:], data) // local window
}

// Get reads len(buf) bytes from member src's window at offset off into
// buf. The data is valid after the next Fence.
func (w *Win) Get(src, off int, buf []byte) {
	w.requireEpoch("Get")
	if off < 0 || off+len(buf) > len(w.base) {
		panic(fmt.Sprintf("mpi: Get [%d,%d) outside window of %d", off, off+len(buf), len(w.base)))
	}
	if p := w.peer(src); p != nil {
		w.outstanding++
		w.rma.RawGet(w.c.w.th, p, w.remote[src], off, buf, func() {
			w.completions++
		})
		return
	}
	copy(buf, w.base[off:off+len(buf)])
}

// Fence closes the current access/exposure epoch and opens the next one:
// it blocks until every RMA operation this process issued has completed
// at its target, then synchronizes the group, so afterwards every member
// observes all pre-fence operations (MPI_Win_fence semantics).
func (w *Win) Fence() {
	w.fences++
	w.c.w.stack.Block(w.c.w.th, func() bool { return w.completions >= w.outstanding }, true)
	w.c.Barrier()
	w.epochOpen = true
}

// Free retires the window (collective).
func (w *Win) Free() {
	w.Fence()
	w.epochOpen = false
}
