package ptl

import (
	"qsmpi/internal/bufpool"
	"qsmpi/internal/elan4"
	"qsmpi/internal/simtime"
)

// Peer identifies a remote process from the PTL layer's point of view.
// Rank is the process's position in the job; Name is its RTE registry
// name, which modules use to look up transport-specific addressing
// (published queue ids, VPIDs, socket ports) during AddProcs. Keeping MPI
// rank and network addressing decoupled here is the paper's §4.1 design
// point: a migrated or late-joining process changes its published
// addressing, never its rank.
type Peer struct {
	Rank int
	Name string
}

// MemDesc is the "expanded" memory descriptor of §4.2: the host buffer
// plus its network-format address. Transports that need no transformed
// addressing (TCP) leave E4 zero.
type MemDesc struct {
	Buf []byte
	E4  elan4.E4Addr
}

// SendDesc is the send side of one message as handed to modules: the
// prebuilt match header, the packed (contiguous) data, and the memory
// descriptor for RDMA. A module receives the same SendDesc in a SendFirst
// and, after a rendezvous ACK, in one Put of its share of the remainder.
type SendDesc struct {
	Hdr Header
	Mem MemDesc
}

// RecvDesc is the receive side of one matched rendezvous: the rendezvous
// header (carrying the sender's request handle and source address) and
// the destination memory.
type RecvDesc struct {
	Hdr Header // the rendezvous header as received
	Mem MemDesc
	// ReqID is the receiver-side request handle to stamp into control
	// messages back to this process.
	ReqID uint64
}

// PML is the upcall interface a module uses to hand fragments and
// progress back to the management layer (the paper's ptl_match,
// ptl_send_progress and ptl_recv_progress entry points).
type PML interface {
	// Rank is the owning process's MPI rank, which the module stamps on
	// what it traces and sends.
	Rank() int
	// ReceiveFirst delivers a MATCH or RNDV fragment for matching. data
	// is the inlined payload (whole message for MATCH); the PML copies
	// what it keeps before returning.
	ReceiveFirst(th *simtime.Thread, mod Module, src *Peer, hdr Header, data []byte)
	// ReceiveFrag delivers an in-band continuation fragment addressed to
	// the receive request in hdr.RecvReq.
	ReceiveFrag(th *simtime.Thread, hdr Header, data []byte)
	// AckArrived delivers a rendezvous ACK to the sender side: the match
	// succeeded, inlined data was consumed, and remote is the receiver's
	// memory the remainder is Put into (NilAddr from a socket transport).
	AckArrived(th *simtime.Thread, hdr Header, remote elan4.E4Addr)
	// SendProgress reports bytes of a send request safely delivered (or
	// buffered); the PML completes the request when all bytes are
	// accounted.
	SendProgress(th *simtime.Thread, sendReq uint64, bytes int)
	// RecvProgress reports bytes landed for a receive request.
	RecvProgress(th *simtime.Thread, recvReq uint64, bytes int)
}

// RMACapable is the optional extension for true one-sided communication
// (MPI-2 RMA): raw RDMA into a remote exposed window with no target-side
// software, which an RDMA-capable transport can provide directly. onDone
// runs in completion context (no thread; it must only update counters/
// signals, not Compute).
type RMACapable interface {
	Module
	// RawPut writes src into the peer's memory at remote+off.
	RawPut(th *simtime.Thread, p *Peer, src []byte, remote elan4.E4Addr, off int, onDone func())
	// RawGet reads len(dst) bytes from the peer's memory at remote+off.
	RawGet(th *simtime.Thread, p *Peer, remote elan4.E4Addr, off int, dst []byte, onDone func())
}

// Params are a module's scheduling constants, read by the PML where it
// schedules a message.
type Params struct {
	// EagerLimit is the largest payload the module accepts in a first
	// fragment (beyond it the PML must use rendezvous).
	EagerLimit int
	// InlineRndv reports whether rendezvous fragments should carry
	// EagerLimit bytes of inlined data (the Fig. 7 "-NoInline" series
	// turns this off).
	InlineRndv bool
	// Weight is the module's relative bandwidth: the PML gives it this
	// share of every rendezvous remainder it stripes across modules.
	Weight float64
}

// Module is one communication endpoint of a transport (the paper's PTL
// module, typically one per NIC). Modules move fragments; all matching,
// scheduling and request state lives above, in the PML.
type Module interface {
	// Params returns the module's scheduling constants.
	Params() Params
	// PoolStats returns a copy of the module's staging buffer-pool
	// counters: Gets == Puts once nothing is in flight.
	PoolStats() bufpool.Stats

	// RegisterMem transforms a host buffer into the module's network
	// addressing (E4Addr on Quadrics; zero for TCP). The PML stores it in
	// the expanded memory descriptor and hands it back with UnregisterMem
	// when the request completes, so the translation table holds the
	// messages in flight, not every message ever sent.
	RegisterMem(buf []byte) elan4.E4Addr
	UnregisterMem(a elan4.E4Addr)

	// AddProcs establishes reachability to peers, in order (connection
	// setup via the RTE modex), and may keep pointers into them; DelProc
	// tears one down after its pending traffic drains.
	AddProcs(th *simtime.Thread, peers []Peer) error
	DelProc(th *simtime.Thread, p *Peer)

	// SendFirst transmits the first fragment: TypeMatch with the whole
	// payload, or TypeRndv with sd.Hdr.FragLen inlined bytes.
	SendFirst(th *simtime.Thread, p *Peer, sd *SendDesc)
	// Put moves message bytes [off,off+ln), this module's share of a
	// rendezvous remainder, to the receiver whose ACK named remote, however
	// the module can (RDMA write and FIN, or in-band fragments).
	Put(th *simtime.Thread, p *Peer, sd *SendDesc, remote elan4.E4Addr, off, ln int)
	// Matched executes the module's rendezvous scheme for a match made by
	// the PML: reply with an ACK (write scheme) or start RDMA reads and
	// finish with FIN_ACK (read scheme).
	Matched(th *simtime.Thread, p *Peer, rd RecvDesc)

	// Progress polls the module once: drain arrived fragments and
	// completions. Called from the PML progress loop.
	Progress(th *simtime.Thread)

	// Finalize drains pending communication, releases resources and
	// closes the component (the fourth and fifth lifecycle stages).
	Finalize(th *simtime.Thread)
}
