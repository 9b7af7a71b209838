// Dependency fixture for the collective table: Sync enters a Barrier, and
// the entry this package publishes for it is what lets collorder flag
// rank-guarded calls from a different package, as the driver hands the
// table from a package to its dependents.
package collhelperdep

import "qsmpi/internal/mpi"

func Sync(c *mpi.Comm) {
	c.Barrier()
}

// Quiet does nothing collective; the table has no entry for it.
func Quiet(c *mpi.Comm) {
	_ = c.Size()
}
