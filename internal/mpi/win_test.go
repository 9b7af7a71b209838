package mpi_test

import (
	"bytes"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/mpi"
	"qsmpi/internal/ptlelan4"
)

func TestWinPutFence(t *testing.T) {
	const n, winSize = 4, 4096
	windows := make([][]byte, n)
	launch(t, n, func(w *mpi.World) {
		base := make([]byte, winSize)
		windows[w.Rank()] = base
		win := w.Comm().WinCreate(base)
		// Each rank puts its signature into the next rank's window at an
		// offset keyed by the writer.
		next := (w.Rank() + 1) % n
		sig := bytes.Repeat([]byte{byte(w.Rank() + 1)}, 256)
		win.Put(next, w.Rank()*256, sig)
		win.Fence()
		// After the fence, my window holds my predecessor's signature.
		prev := (w.Rank() - 1 + n) % n
		got := base[prev*256 : prev*256+256]
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(prev + 1)}, 256)) {
			t.Errorf("rank %d: window missing put from %d", w.Rank(), prev)
		}
		win.Free()
	})
}

func TestWinGet(t *testing.T) {
	const n = 3
	launch(t, n, func(w *mpi.World) {
		base := bytes.Repeat([]byte{byte(w.Rank() * 11)}, 1024)
		win := w.Comm().WinCreate(base)
		win.Fence() // everyone's window initialized before reads
		bufs := make([][]byte, n)
		for peer := 0; peer < n; peer++ {
			bufs[peer] = make([]byte, 512)
			win.Get(peer, 100, bufs[peer])
		}
		win.Fence()
		for peer := 0; peer < n; peer++ {
			want := bytes.Repeat([]byte{byte(peer * 11)}, 512)
			if !bytes.Equal(bufs[peer], want) {
				t.Errorf("rank %d: get from %d wrong", w.Rank(), peer)
			}
		}
	})
}

func TestWinLocalPutGet(t *testing.T) {
	launch(t, 2, func(w *mpi.World) {
		base := make([]byte, 64)
		win := w.Comm().WinCreate(base)
		win.Put(w.Rank(), 8, []byte{1, 2, 3})
		got := make([]byte, 3)
		win.Get(w.Rank(), 8, got)
		win.Fence()
		if !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Error("local window ops broken")
		}
	})
}

func TestWinOneSidedTargetPassive(t *testing.T) {
	// The essence of one-sided: the target performs no receive operation.
	// Rank 0 puts into rank 1's window while rank 1 only fences.
	launch(t, 2, func(w *mpi.World) {
		base := make([]byte, 2048)
		win := w.Comm().WinCreate(base)
		if w.Rank() == 0 {
			payload := bytes.Repeat([]byte{0xCD}, 2048)
			win.Put(1, 0, payload)
		}
		win.Fence()
		if w.Rank() == 1 {
			if base[0] != 0xCD || base[2047] != 0xCD {
				t.Error("one-sided put missing at passive target")
			}
		}
	})
}

func TestWinMultipleEpochs(t *testing.T) {
	launch(t, 2, func(w *mpi.World) {
		base := make([]byte, 8)
		win := w.Comm().WinCreate(base)
		for epoch := 1; epoch <= 5; epoch++ {
			if w.Rank() == 0 {
				win.Put(1, 0, []byte{byte(epoch)})
			}
			win.Fence()
			if w.Rank() == 1 && base[0] != byte(epoch) {
				t.Errorf("epoch %d: window = %d", epoch, base[0])
			}
			win.Fence()
		}
	})
}

func TestWinBoundsPanic(t *testing.T) {
	launch(t, 2, func(w *mpi.World) {
		if w.Rank() != 0 {
			// Keep the peer alive through window creation.
			win := w.Comm().WinCreate(make([]byte, 16))
			_ = win
			return
		}
		win := w.Comm().WinCreate(make([]byte, 16))
		defer func() {
			if recover() == nil {
				t.Error("out-of-window put accepted")
			}
		}()
		win.Put(1, 10, make([]byte, 10))
	})
}

// TestWinOpsReturnRegistrations: a window keeps its own mapping for as long
// as it is exposed; the local buffer of each Put and Get is mapped for that
// one operation and unmapped when it completes.
func TestWinOpsReturnRegistrations(t *testing.T) {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	c := cluster.New(cluster.Spec{Elan: &opts}, 2)
	uni := mpi.NewUniverse()
	c.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, 2)
		mmu := p.State.Ctx.MMU()
		before := mmu.Regions()
		win := w.Comm().WinCreate(make([]byte, 8192))
		buf := make([]byte, 4096)
		for i := 0; i < 10; i++ {
			win.Put(1-p.Rank, 0, buf)
			win.Get(1-p.Rank, 4096, buf)
			win.Fence()
		}
		if got := mmu.Regions(); got != before+1 {
			t.Errorf("rank %d: %d regions mapped after 20 one-sided operations, want the %d from before the window plus the window", p.Rank, got, before)
		}
		win.Free()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
