// Package elan4 models the Quadrics Elan4 network interface at the level
// of detail the paper's protocol design depends on:
//
//   - an MMU translating E4 network addresses to host memory, so RDMA
//     descriptors must carry addresses in the transformed (E4Addr) format;
//   - queued DMA (QDMA): small messages (≤ 2 KB) deposited into a remote
//     process's receive-queue slots;
//   - RDMA read and write of arbitrary length, chunked at the wire MTU and
//     pipelined through the PCI and link stages;
//   - Elan events with counts, host-visible event words, interrupts, and
//     the chained-event mechanism that lets one completed operation
//     trigger the next without host involvement — including the
//     count-reset race of the paper's Fig. 5, which is reproduced
//     faithfully (and demonstrated by a test).
//
// Timing comes from the calibrated model.Config; data movement is real:
// QDMA and RDMA copy actual bytes between registered regions, so protocol
// bugs corrupt data in tests rather than going unnoticed. A QDMA captures
// its payload at issue. An RDMA stages nothing: each packet's bytes are
// read from the registered source when the receiving NIC places the packet,
// at most one path latency after the PCI read the timing model charged for
// them, so a source buffer rewritten under an in-flight RDMA delivers the
// new bytes — the program error qsmpilint's ownership analyzer flags.
package elan4

import (
	"errors"
	"fmt"
)

// E4Addr is a network-visible memory address: the transformed format the
// Elan4 MMU requires in RDMA descriptors (region handle in the high 32
// bits, byte offset in the low 32).
type E4Addr uint64

// NilAddr is the zero E4 address; it never translates.
const NilAddr E4Addr = 0

// Add offsets an E4 address. Offsetting past the 32-bit offset space
// panics, as the hardware descriptor format cannot express it.
func (a E4Addr) Add(off int) E4Addr {
	o := uint64(a&0xffffffff) + uint64(off)
	if o > 0xffffffff {
		panic("elan4: E4Addr offset overflow")
	}
	return E4Addr(uint64(a)&^uint64(0xffffffff) | o)
}

func (a E4Addr) region() uint32 { return uint32(a >> 32) }
func (a E4Addr) offset() int    { return int(a & 0xffffffff) }

func (a E4Addr) String() string {
	return fmt.Sprintf("e4:%d+%d", a.region(), a.offset())
}

// ErrMMUFault is returned when an E4 address does not translate to a
// registered region, or a transfer runs past the region's end. On real
// hardware this traps to the Quadrics system software.
var ErrMMUFault = errors.New("elan4: MMU translation fault")

// MMU is one context's address-translation table: E4 address regions
// backed by host memory. A mapping lives from Register to Unregister and
// pins its buffer meanwhile: the PML makes one per request and a one-sided
// Put or Get one per operation, dropped at completion, and an RMA window
// keeps its own for as long as it is exposed, so the table holds what is in
// flight, not the run's history. Region handles are never reused; a stale
// address faults.
type MMU struct {
	regions map[uint32][]byte
	next    uint32
}

// NewMMU returns an empty translation table.
func NewMMU() *MMU {
	return &MMU{regions: make(map[uint32][]byte), next: 1}
}

// Register maps a host buffer into the E4 address space and returns the
// address of its first byte. On Elan4 host memory does not need
// registration for communication per se, but RDMA descriptors must
// present source and destination in E4 format; Register performs that
// transformation.
func (m *MMU) Register(buf []byte) E4Addr {
	id := m.next
	m.next++
	m.regions[id] = buf
	return E4Addr(uint64(id) << 32)
}

// Unregister drops a region. Subsequent translations through it fault.
func (m *MMU) Unregister(a E4Addr) {
	delete(m.regions, a.region())
}

// Slice translates addr..addr+n to host memory, faulting on unmapped or
// out-of-bounds accesses.
func (m *MMU) Slice(addr E4Addr, n int) ([]byte, error) {
	buf, ok := m.regions[addr.region()]
	if !ok {
		return nil, fmt.Errorf("%w: unmapped region in %v", ErrMMUFault, addr)
	}
	off := addr.offset()
	if n < 0 || off+n > len(buf) {
		return nil, fmt.Errorf("%w: [%d,%d) outside region of %d bytes", ErrMMUFault, off, off+n, len(buf))
	}
	return buf[off : off+n : off+n], nil
}

// Regions returns the number of live registered regions.
func (m *MMU) Regions() int { return len(m.regions) }
