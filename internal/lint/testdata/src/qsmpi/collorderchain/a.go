// Determinism fixture for collorder's helper fixpoint: F enters Bcast
// through a chain of four local helpers and Barrier directly. The
// declarations are resolved in source order, so the chain is resolved
// before F is, and F is found to enter Bcast on every run.
package collorderchain

import (
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
)

func guarded(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	if c.Rank() == 0 {
		F(c, buf, dt) // want `call to F \(enters collective Bcast\)`
	}
}

func g1(c *mpi.Comm, buf []byte, dt *datatype.Datatype) { c.Bcast(0, buf, dt) }

func g2(c *mpi.Comm, buf []byte, dt *datatype.Datatype) { g1(c, buf, dt) }

func g3(c *mpi.Comm, buf []byte, dt *datatype.Datatype) { g2(c, buf, dt) }

func g4(c *mpi.Comm, buf []byte, dt *datatype.Datatype) { g3(c, buf, dt) }

func F(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	g4(c, buf, dt)
	c.Barrier()
}
