package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"qsmpi/internal/datatype"
	"qsmpi/internal/trace"
)

// collTag allocates the next collective tag for this communicator. MPI
// semantics guarantee every member calls collectives in the same order, so
// the per-comm sequence agrees across ranks.
func (c *Comm) collTag() int {
	c.seq.collSeq++
	return collTagBase + c.seq.collSeq%(1<<20)
}

// collCorrBit tags collective-epoch correlators inside the 40-bit request
// space of trace.MsgID (below nbcCorrBit), so CollEnter/CollExit spans
// never collide with point-to-point lifecycles or NBC schedules in the
// profiler.
const collCorrBit = uint64(1) << 38

// collEvent records one collective-epoch boundary event: this rank
// entering (CollEnter) or leaving (CollExit) epoch's collective. op is a
// trace.CollOp code, nic distinguishes the NIC-offloaded path (Peer 1)
// from the host software trees (Peer 0). Free when no tracer is attached
// — collectives charge no extra virtual time either way.
func (c *Comm) collEvent(kind trace.Kind, op, epoch int, nic bool, bytes int) {
	tr := c.w.stack.Tracer
	if tr == nil {
		return
	}
	path := 0
	if nic {
		path = 1
	}
	tr.Record(trace.Event{
		At: c.w.th.Now(), Rank: c.w.rank, Layer: trace.LayerPML, Kind: kind,
		ReqID: uint64(c.id)<<22 | uint64(epoch)&(1<<22-1), Peer: path, Tag: op, Bytes: bytes,
		Corr: trace.MsgID(c.w.rank, collCorrBit|uint64(c.id)<<22|uint64(epoch)&(1<<22-1)),
	})
}

// epoch brackets one Barrier/Bcast/Allreduce with its CollEnter/CollExit
// events and picks its path: nic over the NIC-resident trees when the
// caller allows it (may), a provider is installed and the group is
// eligible, otherwise — or when the provider declines — host over the
// software schedules.
func (c *Comm) epoch(op, bytes int, may bool, nic func(HWColl) bool, host func()) {
	seq := c.seq.collSeq + 1
	hw := may && c.id == 0 && c.w.hw.coll != nil && c.w.hw.eligible
	c.collEvent(trace.CollEnter, op, seq, hw, bytes)
	if hw {
		c.seq.collSeq++ // keep collective sequencing aligned with fallback
		hw = nic(c.w.hw.coll)
	}
	if !hw {
		host()
	}
	c.collEvent(trace.CollExit, op, seq, hw, bytes)
}

// Barrier blocks until every member has entered it: over the NIC-resident
// combine tree when a provider is installed and the group is eligible,
// otherwise the dissemination algorithm (ceil(log2 n) rounds of zero-byte
// exchanges).
func (c *Comm) Barrier() {
	if c.Size() == 1 {
		return
	}
	c.epoch(trace.CollOpBarrier, 0, true,
		func(h HWColl) bool { return h.HWBarrier(c.w.th, c.ranks, c.w.rank) },
		func() { c.run(c.barrierStage()) })
}

// Bcast broadcasts root's buf to every member: over the QsNet hardware
// broadcast when a provider is installed and the group is eligible
// (static world, contiguous data), otherwise a binomial software tree.
func (c *Comm) Bcast(root int, buf []byte, dt *datatype.Datatype) {
	if c.Size() == 1 {
		return
	}
	c.epoch(trace.CollOpBcast, dt.Size(), dt.Contig(),
		func(h HWColl) bool { return h.HWBcast(c.w.th, c.member(root), c.ranks, c.w.rank, buf[:dt.Size()]) },
		func() { c.run(c.bcastStage(root, buf, dt)) })
}

// Op combines src into dst elementwise; both are the packed representation
// of the reduction datatype.
type Op func(dst, src []byte)

// fold64 is the Op applying f to each pair of little-endian 64-bit words.
func fold64(f func(dst, src uint64) uint64) Op {
	le := binary.LittleEndian
	return func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			le.PutUint64(dst[i:], f(le.Uint64(dst[i:]), le.Uint64(src[i:])))
		}
	}
}

// OpSumF64 adds little-endian float64 vectors.
var OpSumF64 = fold64(func(dst, src uint64) uint64 {
	return math.Float64bits(math.Float64frombits(dst) + math.Float64frombits(src))
})

// OpMaxF64 takes the elementwise max of float64 vectors.
var OpMaxF64 = fold64(func(dst, src uint64) uint64 {
	if math.Float64frombits(src) > math.Float64frombits(dst) {
		return src
	}
	return dst
})

// OpSumI64 adds little-endian int64 vectors.
var OpSumI64 = fold64(func(dst, src uint64) uint64 { return dst + src })

// Reduce combines every member's contribution into root's recv buffer
// (binomial tree). buf is each member's contribution; on root, recv gets
// the result (may alias buf on non-roots, unused there).
func (c *Comm) Reduce(root int, buf, recv []byte, op Op) {
	c.run(c.reduceStage(root, buf, recv, op))
}

// Allreduce reduces every member's buf with op and leaves the result in
// recv on all members: over the NIC-resident combine tree when a provider
// is installed and the group is eligible, otherwise Reduce to rank 0
// followed by Bcast.
func (c *Comm) Allreduce(buf, recv []byte, op Op) {
	c.epoch(trace.CollOpAllreduce, len(buf), c.Size() > 1,
		func(h HWColl) bool {
			copy(recv, buf)
			return h.HWAllreduce(c.w.th, c.ranks, c.w.rank, recv[:len(buf)], op)
		},
		func() {
			c.Reduce(0, buf, recv, op)
			c.Bcast(0, recv, datatype.Contiguous(len(recv)))
		})
}

// amRoot reports whether the caller is root, refusing a root outside the
// communicator (the wildcard included: nobody would be root).
func (c *Comm) amRoot(root int) bool {
	c.member(root)
	return c.myIdx == root
}

// Gather concentrates equal-size contributions at root; recv must hold
// Size()*len(buf) bytes on root.
func (c *Comm) Gather(root int, buf, recv []byte) {
	if c.amRoot(root) && len(recv) < c.Size()*len(buf) {
		panic(fmt.Sprintf("mpi: gather buffer %d short of %d", len(recv), c.Size()*len(buf)))
	}
	counts, displs := c.blocks(len(buf))
	c.Gatherv(root, buf, recv, counts, displs)
}

// blocks is the uniform layout the fixed-size collectives hand their
// v-forms: Size() blocks of size bytes, back to back.
func (c *Comm) blocks(size int) (counts, displs []int) {
	counts, displs = make([]int, c.Size()), make([]int, c.Size())
	for i := range counts {
		counts[i], displs[i] = size, i*size
	}
	return counts, displs
}

// Allgather distributes every member's equal-size contribution to all
// (gather at 0, then broadcast).
func (c *Comm) Allgather(buf, recv []byte) {
	c.Gather(0, buf, recv)
	c.Bcast(0, recv, datatype.Contiguous(len(recv)))
}

// allgatherBytes is Allgather returning a fresh slice.
func (c *Comm) allgatherBytes(buf []byte) []byte {
	out := make([]byte, len(buf)*c.Size())
	c.Allgather(buf, out)
	return out
}

// Scatter distributes equal slices of root's send buffer: member i
// receives send[i*len(recv) : (i+1)*len(recv)] into recv.
func (c *Comm) Scatter(root int, send, recv []byte) {
	if c.amRoot(root) && len(send) < c.Size()*len(recv) {
		panic(fmt.Sprintf("mpi: scatter buffer %d short of %d", len(send), c.Size()*len(recv)))
	}
	counts, displs := c.blocks(len(recv))
	c.Scatterv(root, send, counts, displs, recv)
}

// Alltoall performs the complete exchange: member i's send block j lands
// in member j's recv block i. Block size is len(send)/Size().
func (c *Comm) Alltoall(send, recv []byte) {
	if len(send)%c.Size() != 0 || len(recv) != len(send) {
		panic("mpi: alltoall buffers must be Size()-divisible and equal length")
	}
	counts, displs := c.blocks(len(send) / c.Size())
	c.Alltoallv(send, counts, displs, recv, counts, displs)
}

// Gatherv concentrates variable-size contributions at root: member i
// sends len(buf) bytes which land at recv[displs[i]:displs[i]+counts[i]].
// counts and displs are only consulted on the root; senders' counts must
// match their buffer lengths.
func (c *Comm) Gatherv(root int, buf []byte, recv []byte, counts, displs []int) {
	n := c.Size()
	tag := c.collTag()
	if !c.amRoot(root) {
		c.Send(root, tag, buf, datatype.Contiguous(len(buf)))
		return
	}
	if len(counts) != n || len(displs) != n {
		panic("mpi: gatherv needs one count and displacement per member")
	}
	copy(recv[displs[root]:displs[root]+counts[root]], buf)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		c.Recv(r, tag, recv[displs[r]:displs[r]+counts[r]], datatype.Contiguous(counts[r]))
	}
}

// Scatterv distributes variable-size slices of root's send buffer: member
// i receives counts[i] bytes from send[displs[i]:]. recv must hold the
// member's count.
func (c *Comm) Scatterv(root int, send []byte, counts, displs []int, recv []byte) {
	n := c.Size()
	tag := c.collTag()
	if c.amRoot(root) {
		if len(counts) != n || len(displs) != n {
			panic("mpi: scatterv needs one count and displacement per member")
		}
		copy(recv, send[displs[root]:displs[root]+counts[root]])
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			c.Send(r, tag, send[displs[r]:displs[r]+counts[r]], datatype.Contiguous(counts[r]))
		}
		return
	}
	c.Recv(root, tag, recv, datatype.Contiguous(len(recv)))
}

// Allgatherv distributes variable-size contributions to every member.
// counts and displs must be identical on all members.
func (c *Comm) Allgatherv(buf []byte, recv []byte, counts, displs []int) {
	c.Gatherv(0, buf, recv, counts, displs)
	total := 0
	for i, ct := range counts {
		if e := displs[i] + ct; e > total {
			total = e
		}
	}
	c.Bcast(0, recv[:total], datatype.Contiguous(total))
}

// Alltoallv is the variable-count complete exchange: member i sends
// sendCounts[j] bytes from send[sendDispls[j]:] to member j, receiving
// recvCounts[j] bytes at recv[recvDispls[j]:]. Every member's recvCounts[j]
// must equal member j's sendCounts for it.
func (c *Comm) Alltoallv(send []byte, sendCounts, sendDispls []int, recv []byte, recvCounts, recvDispls []int) {
	n := c.Size()
	if len(sendCounts) != n || len(sendDispls) != n || len(recvCounts) != n || len(recvDispls) != n {
		panic("mpi: alltoallv needs per-member counts and displacements")
	}
	tag := c.collTag()
	copy(recv[recvDispls[c.myIdx]:recvDispls[c.myIdx]+recvCounts[c.myIdx]],
		send[sendDispls[c.myIdx]:sendDispls[c.myIdx]+sendCounts[c.myIdx]])
	// Every receive is posted before any send; the sends go out in ring
	// order, member i's first to i+1, so no destination is hit by all.
	var reqs []*Request
	for r := 0; r < n; r++ {
		if r == c.myIdx {
			continue
		}
		reqs = append(reqs, c.Irecv(r, tag,
			recv[recvDispls[r]:recvDispls[r]+recvCounts[r]], datatype.Contiguous(recvCounts[r])))
	}
	for shift := 1; shift < n; shift++ {
		dst := (c.myIdx + shift) % n
		reqs = append(reqs, c.Isend(dst, tag,
			send[sendDispls[dst]:sendDispls[dst]+sendCounts[dst]], datatype.Contiguous(sendCounts[dst])))
	}
	Waitall(reqs...)
}

// ReduceScatter reduces elementwise across members and scatters equal
// blocks of the result: member i gets block i. send holds Size() blocks
// of len(recv) bytes.
func (c *Comm) ReduceScatter(send, recv []byte, op Op) {
	n := c.Size()
	if len(send) != n*len(recv) {
		panic("mpi: reduce_scatter send must be Size()×recv")
	}
	full := make([]byte, len(send))
	c.Reduce(0, send, full, op)
	c.Scatter(0, full, recv)
}

// Scan computes the inclusive prefix reduction: member i receives the
// combination of contributions from members 0..i.
func (c *Comm) Scan(send, recv []byte, op Op) {
	tag := c.collTag()
	dt := datatype.Contiguous(len(send))
	acc := append([]byte(nil), send...)
	if c.myIdx > 0 {
		prev := make([]byte, len(send))
		c.Recv(c.myIdx-1, tag, prev, dt)
		// Combine in rank order: earlier ranks first.
		op(prev, acc)
		acc = prev
	}
	if c.myIdx < c.Size()-1 {
		c.Send(c.myIdx+1, tag, acc, dt)
	}
	copy(recv, acc)
}
