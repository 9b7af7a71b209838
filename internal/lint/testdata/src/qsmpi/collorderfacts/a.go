// Helper-indirection fixture for collorder's collective tables: the
// collective hides behind collhelperdep.Sync, one package away, and only
// the table collhelperdep publishes can reveal it.
package collorderfacts

import (
	"qsmpi/collhelperdep"
	"qsmpi/internal/mpi"
)

func divergentViaHelper(c *mpi.Comm) {
	if c.Rank() == 0 {
		collhelperdep.Sync(c) // want `enters collective Barrier`
	}
}

// uniformViaHelper is clean: every rank calls the helper.
func uniformViaHelper(c *mpi.Comm) {
	collhelperdep.Sync(c)
}

// quietGuarded is clean: the guarded helper has no entry in the table.
func quietGuarded(c *mpi.Comm) {
	if c.Rank() == 0 {
		collhelperdep.Quiet(c)
	}
}
