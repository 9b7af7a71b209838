// Seeded violations and clean idioms for the reqlife analyzer: leaked
// requests, double waits, in-flight buffer writes and re-posts on the
// positive side; defer-wait, Waitall-via-slice, test-then-wait, branch
// waits and aliases on the negative.
package reqlifefix

import (
	"qsmpi/internal/bufpool"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
)

func leak(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt) // want `never completed`
	_ = r
}

func discard(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	c.Isend(1, 0, buf, dt) // want `discarded`
}

func discardBlank(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	_ = c.Irecv(0, 0, buf, dt) // want `assigned to _`
}

func doubleWait(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Irecv(0, 0, buf, dt)
	r.Wait()
	r.Wait() // want `waited twice`
}

func useAfterPost(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt)
	buf[0] = 1 // want `written while`
	r.Wait()
}

func copyWhileInflight(c *mpi.Comm, buf, src []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt)
	copy(buf, src) // want `written \(copy\)`
	r.Wait()
}

func rePost(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r1 := c.Isend(1, 0, buf, dt)
	r2 := c.Isend(2, 0, buf, dt) // want `re-posted`
	r1.Wait()
	r2.Wait()
}

func persistentLeak(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	p := c.SendInit(1, 0, buf, dt)
	p.Start() // want `persistent request started`
}

// deferWait is clean: the deferred Wait runs on every exit path.
func deferWait(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Irecv(0, 0, buf, dt)
	defer r.Wait()
	buf = nil
	_ = buf
}

// waitallSlice is clean: each request escapes into the slice at birth and
// the slice reaches Waitall — the canonical bulk-completion idiom.
func waitallSlice(c *mpi.Comm, bufs [][]byte, dt *datatype.Datatype) {
	var reqs []*mpi.Request
	for i, b := range bufs {
		reqs = append(reqs, c.Irecv(i, 0, b, dt))
	}
	mpi.Waitall(reqs...)
}

// testThenWait is clean: Test is idempotent polling, not a second Wait.
func testThenWait(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Irecv(0, 0, buf, dt)
	for !r.Test() {
	}
	r.Wait()
}

// branchWait is clean: each arm waits once; arms are alternatives, not a
// sequence.
func branchWait(c *mpi.Comm, buf []byte, dt *datatype.Datatype, eager bool) {
	r := c.Irecv(0, 0, buf, dt)
	if eager {
		r.Wait()
	} else {
		r.Wait()
	}
}

// aliasWait is clean: r2 is r, and waiting either completes the request.
func aliasWait(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Irecv(0, 0, buf, dt)
	r2 := r
	r2.Wait()
}

// escapeHelper is clean (conservatively): the helper owns completion now.
func escapeHelper(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt)
	completeElsewhere(r)
}

func completeElsewhere(r *mpi.Request) {
	r.Wait()
}

// persistentLoop is clean: every Start is paired with a Wait.
func persistentLoop(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	p := c.SendInit(1, 0, buf, dt)
	for i := 0; i < 4; i++ {
		p.Start()
		p.Wait()
	}
}

// waitOnOneArm: a Wait on one arm of an if/else, a switch or a loop does
// not complete the request past the join, so the write after it is in
// flight and the Wait after it is not a second one.
func waitOnOneArm(c *mpi.Comm, buf []byte, dt *datatype.Datatype, eager bool, mode int) {
	r := c.Isend(1, 0, buf, dt)
	if eager {
		r.Wait()
	} else {
		_ = r.Test()
	}
	switch mode {
	case 0:
		r.Wait()
	case 1:
		r.Wait()
	}
	for i := 0; i < mode; i++ {
		r.Wait()
	}
	buf[0] = 1 // want `written while`
	r.Wait()
}

// waitInCondition: a Wait in an if condition completes the request before
// either arm runs, and for every statement after the if.
func waitInCondition(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Irecv(0, 0, buf, dt)
	if r.Wait().Len == 0 {
		buf[0] = 1
	}
	buf[1] = 1
	r.Wait() // want `waited twice`
}

func writeInNestedBlock(c *mpi.Comm, buf []byte, dt *datatype.Datatype, verbose bool) {
	r := c.Isend(1, 0, buf, dt)
	if verbose {
		buf[0] = 1 // want `written while`
	}
	r.Wait()
}

// aliasChain: r3 is r2 is r, and the buffer posted is d, a slice of an
// alias of buf.
func aliasChain(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	b := buf
	d := b[:8]
	r := c.Isend(1, 0, d, dt)
	r2 := r
	r3 := r2
	d[0] = 1 // want `written while`
	r.Wait()
	r3.Wait() // want `waited twice`
}

func multiResultReturn(c *mpi.Comm, buf []byte, dt *datatype.Datatype) (mpi.Status, error) {
	r := c.Irecv(0, 0, buf, dt)
	return r.Wait(), nil
}

// funcLitOwnWait: a function literal's own requests are held to the same
// obligation as the enclosing function's.
func funcLitOwnWait(c *mpi.Comm, buf []byte, dt *datatype.Datatype, run func(func())) {
	run(func() {
		r := c.Isend(1, 0, buf, dt)
		r.Wait()
	})
	run(func() {
		r := c.Irecv(0, 0, buf, dt) // want `never completed`
		_ = r
	})
}

// deferWaitWrite: a deferred Wait completes the request at return, after
// the write.
func deferWaitWrite(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt)
	defer r.Wait()
	buf[0] = 1 // want `written while`
}

// deferFuncWait: a deferred closure's Wait completes the request at
// return, so the request is not leaked, and the write before the return
// is still in flight.
func deferFuncWait(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt)
	defer func() { r.Wait() }()
	buf[0] = 1 // want `written while`
}

// writeThroughPostedSlice: d is a slice of buf, so a write through buf
// lands in the bytes d's Isend is draining.
func writeThroughPostedSlice(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	d := buf[:8]
	r := c.Isend(1, 0, d, dt)
	buf[0] = 1 // want `written while`
	r.Wait()
}

// writeInClosure: a function literal handed to a call may run at once, so
// its writes count on the path it appears on.
func writeInClosure(c *mpi.Comm, buf []byte, dt *datatype.Datatype, run func(func())) {
	r := c.Isend(1, 0, buf, dt)
	run(func() { buf[0] = 1 }) // want `written while`
	r.Wait()
}

func incWhileInflight(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt)
	buf[0]++ // want `written while`
	r.Wait()
}

func writeInForPost(c *mpi.Comm, buf []byte, dt *datatype.Datatype, n int) {
	r := c.Isend(1, 0, buf, dt)
	for i := 0; i < n; buf[0] = 1 { // want `written while`
		i++
	}
	r.Wait()
}

func putWhileInflight(c *mpi.Comm, p *bufpool.Pool, dt *datatype.Datatype) {
	b := p.Get(64)
	r := c.Isend(1, 0, b, dt)
	p.Put(b) // want `Put of b while the Isend from line \d+ is in flight`
	r.Wait()
}

func writeThroughVarSlice(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	var d = buf[:8]
	r := c.Isend(1, 0, d, dt)
	buf[0] = 1 // want `written while`
	r.Wait()
}

// varLeak: a request bound by a var declaration is held to the same
// obligation as one bound by an assignment.
func varLeak(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	var r = c.Isend(1, 0, buf, dt) // want `never completed`
	_ = r
}

// aliasWaitInGoroutine is clean: r2 is r, and the goroutine waits on it.
func aliasWaitInGoroutine(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Irecv(0, 0, buf, dt)
	r2 := r
	go func() { r2.Wait() }()
}

// sendOnChannel is clean: the receiver of the channel owns completion now.
func sendOnChannel(c *mpi.Comm, buf []byte, dt *datatype.Datatype, ch chan<- *mpi.Request) {
	r := c.Isend(1, 0, buf, dt)
	ch <- r
}

// waitPreviousInLoop is clean: each iteration waits the request of the
// one before, and the last is waited after the loop.
func waitPreviousInLoop(c *mpi.Comm, bufs [][]byte, dt *datatype.Datatype) {
	var r *mpi.Request
	for _, b := range bufs {
		if r != nil {
			r.Wait()
		}
		r = c.Isend(1, 0, b, dt)
	}
	r.Wait()
}

// postInLiteral is clean: the obligation is the declaration's, whichever
// of its bodies is walked first, so the Wait after the literal's call
// completes the request the literal posts.
func postInLiteral(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	var r *mpi.Request
	start := func() { r = c.Isend(1, 0, buf, dt) }
	start()
	r.Wait()
}

// aliasOnArms is clean: the alias map is the declaration's, so the alias
// each arm makes still names the request after the join.
func aliasOnArms(c *mpi.Comm, buf []byte, dt *datatype.Datatype, x bool) {
	var r2 *mpi.Request
	r := c.Isend(1, 0, buf, dt)
	if x {
		r2 = r
	} else {
		r2 = r
	}
	r2.Wait()
}

// waitThenRepost leaks the second request: the Wait before it completes
// only the first, and nothing reaches r after the re-post.
func waitThenRepost(c *mpi.Comm, buf []byte, dt *datatype.Datatype) {
	r := c.Isend(1, 0, buf, dt)
	r.Wait()
	r = c.Isend(1, 0, buf, dt) // want `never completed`
}

// waitAtLoopTop is clean: each iteration waits the request of the one
// before, and the iteration after the last post only waits.
func waitAtLoopTop(c *mpi.Comm, bufs [][]byte, dt *datatype.Datatype) {
	var r *mpi.Request
	for i := 0; i <= len(bufs); i++ {
		if r != nil {
			r.Wait()
		}
		if i < len(bufs) {
			r = c.Isend(1, 0, bufs[i], dt)
		}
	}
}
