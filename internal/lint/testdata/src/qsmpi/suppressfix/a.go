// Fixture for the suppression audit: a directive that earns its keep (no
// audit finding), a stale directive whose analyzer never fires on the
// covered lines, and a directive naming an analyzer that does not exist.
package suppressfix

import (
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
)

func earned(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt) //lint:allow ownership fixture: completion is the peer's responsibility here
	_ = r
}

func stale(c *mpi.Comm) {
	c.Barrier() //lint:allow ownership nothing on this line ever fires // want `unused //lint:allow ownership`
}

func unknown(c *mpi.Comm) {
	c.Barrier() //lint:allow nosuchanalyzer the analyzer name is wrong // want `unknown analyzer`
}
