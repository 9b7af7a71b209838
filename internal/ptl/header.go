// Package ptl defines the point-to-point transport layer framework of the
// Open MPI communication architecture as the paper describes it: the
// 64-byte match header every first fragment carries, the Module interface
// a network transport implements (the paper's "PTL module", one per NIC),
// the PML upcall interface, and the five-stage component lifecycle
// (opening, initializing, communicating, finalizing, closing).
package ptl

import (
	"encoding/binary"
	"fmt"

	"qsmpi/internal/elan4"
)

// HeaderSize is the Open MPI match/rendezvous header size. The paper's
// §6.3 and §6.5 repeatedly call out the 64-byte header (vs MPICH-QsNetII's
// 32 bytes) as a measurable cost, so the encoding below is exactly 64
// bytes and every first fragment pays for it on the wire.
const HeaderSize = 64

// MsgType discriminates fragments on the wire.
type MsgType uint8

const (
	// TypeMatch is an eager first fragment carrying the whole message.
	TypeMatch MsgType = iota + 1
	// TypeRndv is a rendezvous first fragment: header plus optionally
	// inlined data, awaiting a match before the bulk moves.
	TypeRndv
	// TypeAck acknowledges a matched rendezvous back to the sender and
	// carries the receiver's memory descriptor (RDMA-write scheme, Fig 3).
	TypeAck
	// TypeFrag is an in-band continuation fragment (send/recv transports).
	TypeFrag
	// TypeFin tells the receiver that RDMA writes have been placed
	// (write scheme, Fig 3).
	TypeFin
	// TypeFinAck tells the sender that the receiver's RDMA reads have
	// completed — it both acks the rendezvous and finishes the message
	// (read scheme, Fig 4).
	TypeFinAck
)

func (t MsgType) String() string {
	switch t {
	case TypeMatch:
		return "MATCH"
	case TypeRndv:
		return "RNDV"
	case TypeAck:
		return "ACK"
	case TypeFrag:
		return "FRAG"
	case TypeFin:
		return "FIN"
	case TypeFinAck:
		return "FIN_ACK"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Header is the match header. Fixed wire layout, 64 bytes, little-endian.
type Header struct {
	Type    MsgType
	Flags   uint8
	CommID  uint16
	SrcRank int32
	DstRank int32
	Tag     int32
	SeqNum  uint32 // per (src,comm) ordering for MPI matching semantics
	FragLen uint32 // payload bytes carried or described by this fragment
	MsgLen  uint64 // total message length
	Offset  uint64 // byte offset of this fragment within the message
	SendReq uint64 // sender-side request handle
	RecvReq uint64 // receiver-side request handle (0 until matched)
	SrcAddr uint64 // sender's E4 address of the message body (rendezvous)
}

// EncodeTo writes the fixed 64-byte wire form into b, which must hold
// HeaderSize bytes: callers stage into pooled or embedded buffers.
func (h *Header) EncodeTo(b []byte) {
	_ = b[HeaderSize-1]
	b[0] = byte(h.Type)
	b[1] = h.Flags
	binary.LittleEndian.PutUint16(b[2:], h.CommID)
	binary.LittleEndian.PutUint32(b[4:], uint32(h.SrcRank))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.DstRank))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Tag))
	binary.LittleEndian.PutUint32(b[16:], h.SeqNum)
	binary.LittleEndian.PutUint32(b[20:], h.FragLen)
	binary.LittleEndian.PutUint64(b[24:], h.MsgLen)
	binary.LittleEndian.PutUint64(b[32:], h.Offset)
	binary.LittleEndian.PutUint64(b[40:], h.SendReq)
	binary.LittleEndian.PutUint64(b[48:], h.RecvReq)
	binary.LittleEndian.PutUint64(b[56:], h.SrcAddr)
}

// DecodeHeader parses the 64-byte wire form.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("ptl: short header: %d bytes", len(b))
	}
	h := Header{
		Type:    MsgType(b[0]),
		Flags:   b[1],
		CommID:  binary.LittleEndian.Uint16(b[2:]),
		SrcRank: int32(binary.LittleEndian.Uint32(b[4:])),
		DstRank: int32(binary.LittleEndian.Uint32(b[8:])),
		Tag:     int32(binary.LittleEndian.Uint32(b[12:])),
		SeqNum:  binary.LittleEndian.Uint32(b[16:]),
		FragLen: binary.LittleEndian.Uint32(b[20:]),
		MsgLen:  binary.LittleEndian.Uint64(b[24:]),
		Offset:  binary.LittleEndian.Uint64(b[32:]),
		SendReq: binary.LittleEndian.Uint64(b[40:]),
		RecvReq: binary.LittleEndian.Uint64(b[48:]),
		SrcAddr: binary.LittleEndian.Uint64(b[56:]),
	}
	if h.Type < TypeMatch || h.Type > TypeFinAck {
		return Header{}, fmt.Errorf("ptl: bad message type %d", b[0])
	}
	return h, nil
}

// E4SrcAddr returns the rendezvous source address as an Elan4 address.
// The paper's §4.2 expands the generic memory descriptor with an E4Addr
// field; this is its wire representation.
func (h *Header) E4SrcAddr() elan4.E4Addr { return elan4.E4Addr(h.SrcAddr) }
