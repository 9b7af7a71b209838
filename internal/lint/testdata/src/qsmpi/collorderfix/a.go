// Seeded violations and clean idioms for the collorder analyzer:
// collectives under rank-dependent branches (direct, via tainted
// variables, via local helpers) on the positive side; the root-rank
// payload idiom and uniform control flow on the negative.
package collorderfix

import (
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
)

func divergentBarrier(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want `divergent order`
	}
}

func taintedVar(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	me := c.Rank()
	lead := me == 0
	if lead {
		c.Bcast(0, buf, dt) // want `divergent order`
	}
}

func taintedVarDecl(c *mpi.Comm) {
	var lead = c.Rank() == 0
	if lead {
		c.Barrier() // want `divergent order`
	}
}

func worldRank(w *mpi.World, c *mpi.Comm) {
	if w.Rank() == 0 {
		c.Barrier() // want `divergent order`
	}
}

func switchRank(c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		c.Barrier() // want `divergent order`
	}
}

func helperSync(c *mpi.Comm) {
	c.Barrier()
}

func divergentHelper(c *mpi.Comm) {
	if c.Rank() == 0 {
		helperSync(c) // want `enters collective Barrier`
	}
}

// rootIdiom is clean: the rank guard covers only the payload setup; the
// collective itself is outside and every rank reaches it.
func rootIdiom(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	const root = 0
	if c.Rank() == root {
		fill(buf)
	}
	c.Bcast(root, buf, dt)
}

func fill(buf []byte) {
	for i := range buf {
		buf[i] = byte(i)
	}
}

// uniform is clean: the loop bound is rank-independent, so every rank
// executes the same collective sequence.
func uniform(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	for i := 0; i < 3; i++ {
		c.Bcast(0, buf, dt)
	}
}
