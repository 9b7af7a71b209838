package mpi_test

import (
	"fmt"
	"strings"
	"testing"

	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
)

// TestRootOutsideCommPanics: a root that is not a comm rank is refused by
// every rooted operation, on every member, before anything is sent. The
// binomial trees used to alias it modulo n and broadcast the wrong
// member's buffer, or reduce to nobody.
func TestRootOutsideCommPanics(t *testing.T) {
	const n = 4
	counts, displs := []int{8, 8, 8, 8}, []int{0, 8, 16, 24}
	ops := []struct {
		name string
		run  func(c *mpi.Comm, root int)
	}{
		{"Bcast", func(c *mpi.Comm, root int) { c.Bcast(root, make([]byte, 8), datatype.Contiguous(8)) }},
		{"Ibcast", func(c *mpi.Comm, root int) { c.Ibcast(root, make([]byte, 8), datatype.Contiguous(8)).Wait() }},
		{"Reduce", func(c *mpi.Comm, root int) { c.Reduce(root, make([]byte, 8), make([]byte, 8), mpi.OpSumF64) }},
		{"Gather", func(c *mpi.Comm, root int) { c.Gather(root, make([]byte, 8), make([]byte, 8*n)) }},
		{"Scatter", func(c *mpi.Comm, root int) { c.Scatter(root, make([]byte, 8*n), make([]byte, 8)) }},
		{"Gatherv", func(c *mpi.Comm, root int) { c.Gatherv(root, make([]byte, 8), make([]byte, 8*n), counts, displs) }},
		{"Scatterv", func(c *mpi.Comm, root int) { c.Scatterv(root, make([]byte, 8*n), counts, displs, make([]byte, 8)) }},
	}
	for _, op := range ops {
		for _, root := range []int{-1, n, 2 * n} {
			launch(t, n, func(w *mpi.World) {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "outside communicator") {
						t.Errorf("%s(root=%d) on rank %d: %s, want the communicator's range check",
							op.name, root, w.Rank(), msg)
					}
				}()
				op.run(w.Comm(), root)
			})
		}
	}
}
