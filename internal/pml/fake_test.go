package pml

import (
	"fmt"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/elan4"
	"qsmpi/internal/ptl"
	"qsmpi/internal/simtime"
)

// The fake transport used by the PML tests: a pair (or mesh) of modules
// joined by a latency-only network. It implements both rendezvous schemes
// (ACK+Put like Fig. 3, Get+FIN_ACK like Fig. 4), and its Put either writes
// remote memory or sends in-band fragments, so the PML's protocol logic can
// be tested without the Elan4 machinery.
// All PML upcalls happen inside Progress, matching the real modules'
// invariant.

type fakeKind int

const (
	fkFirst fakeKind = iota
	fkFrag
	fkAck
	fkFin
	fkFinAck
	fkPutDone
	fkGetDone
)

type fakeMsg struct {
	kind   fakeKind
	hdr    ptl.Header
	data   []byte
	remote elan4.E4Addr
	from   int
	bytes  int
}

type fakeNet struct {
	k       *simtime.Kernel
	latency simtime.Duration
	mods    map[int][]*fakeModule // by rank (several rails per rank allowed)
	// mem is the per-process registered-memory table: E4 addresses are
	// process-wide (one NIC context per process), not per rail.
	mem    map[int]map[elan4.E4Addr][]byte
	nextE4 map[int]uint32
}

func newFakeNet(k *simtime.Kernel, latency simtime.Duration) *fakeNet {
	return &fakeNet{
		k: k, latency: latency,
		mods:   make(map[int][]*fakeModule),
		mem:    make(map[int]map[elan4.E4Addr][]byte),
		nextE4: make(map[int]uint32),
	}
}

func (n *fakeNet) register(rank int, buf []byte) elan4.E4Addr {
	if n.mem[rank] == nil {
		n.mem[rank] = make(map[elan4.E4Addr][]byte)
		n.nextE4[rank] = 1
	}
	a := elan4.E4Addr(uint64(n.nextE4[rank]) << 32)
	n.nextE4[rank]++
	n.mem[rank][a] = buf
	return a
}

func (n *fakeNet) deliver(dstRank int, rail string, m fakeMsg) {
	n.k.After(n.latency, "fake:deliver", func() {
		for _, mod := range n.mods[dstRank] {
			if mod.rail == rail {
				mod.inbox = append(mod.inbox, m)
				mod.stack.Activity().Add(1)
				return
			}
		}
		panic(fmt.Sprintf("fake: no rail %q at rank %d", rail, dstRank))
	})
}

type fakeModule struct {
	rail  string
	net   *fakeNet
	rank  int
	stack *Stack
	peers map[int]*ptl.Peer

	eagerLimit int
	inline     bool
	put        bool // Matched replies ACK and the sender Puts; false: the read scheme
	maxFrag    int  // > 0: Put sends in-band fragments of at most maxFrag bytes
	weight     float64

	inbox []fakeMsg

	// stats for scheduling tests
	PutBytes  int
	FragBytes int
	Frags     int
	Firsts    int
}

func newFakeModule(net *fakeNet, rail string, rank int, stack *Stack) *fakeModule {
	m := &fakeModule{
		rail: rail, net: net, rank: rank, stack: stack,
		peers:      make(map[int]*ptl.Peer),
		eagerLimit: 1984, inline: true, put: true, weight: 1,
	}
	net.mods[rank] = append(net.mods[rank], m)
	return m
}

func (m *fakeModule) Params() ptl.Params {
	return ptl.Params{EagerLimit: m.eagerLimit, InlineRndv: m.inline, Weight: m.weight}
}

func (m *fakeModule) PoolStats() bufpool.Stats { return bufpool.Stats{} }

func (m *fakeModule) RegisterMem(buf []byte) elan4.E4Addr {
	return m.net.register(m.rank, buf)
}

func (m *fakeModule) UnregisterMem(a elan4.E4Addr) { delete(m.net.mem[m.rank], a) }

func (m *fakeModule) AddProcs(th *simtime.Thread, peers []ptl.Peer) error {
	for i := range peers {
		m.peers[peers[i].Rank] = &peers[i]
	}
	return nil
}

func (m *fakeModule) DelProc(th *simtime.Thread, p *ptl.Peer) {
	delete(m.peers, p.Rank)
}

func (m *fakeModule) SendFirst(th *simtime.Thread, p *ptl.Peer, sd *ptl.SendDesc) {
	inline := int(sd.Hdr.FragLen)
	msg := fakeMsg{kind: fkFirst, hdr: sd.Hdr, data: append([]byte(nil), sd.Mem.Buf[:inline]...), from: m.rank}
	m.net.deliver(p.Rank, m.rail, msg)
	if sd.Hdr.Type == ptl.TypeMatch {
		// Eager: buffered on the wire; report full progress locally.
		m.net.k.After(m.net.latency, "fake:eagerdone", func() {
			m.inbox = append(m.inbox, fakeMsg{kind: fkPutDone, hdr: sd.Hdr, bytes: int(sd.Hdr.MsgLen)})
			m.stack.Activity().Add(1)
		})
	}
}

func (m *fakeModule) Put(th *simtime.Thread, p *ptl.Peer, sd *ptl.SendDesc, remote elan4.E4Addr, off, ln int) {
	if m.maxFrag > 0 {
		m.sendFrags(p, sd, off, ln)
		return
	}
	m.PutBytes += ln
	data := append([]byte(nil), sd.Mem.Buf[off:off+ln]...)
	hdr := sd.Hdr
	m.net.k.After(m.net.latency, "fake:put", func() {
		// RDMA write: place bytes directly in the remote staging buffer,
		// then FIN.
		for _, peerMod := range m.net.mods[p.Rank] {
			if peerMod.rail != m.rail {
				continue
			}
			buf, ok := m.net.mem[p.Rank][remote]
			if !ok {
				panic("fake: put to unregistered memory")
			}
			copy(buf[off:off+ln], data)
			f := hdr
			f.Type = ptl.TypeFin
			f.FragLen = uint32(ln)
			peerMod.inbox = append(peerMod.inbox, fakeMsg{kind: fkFin, hdr: f, from: m.rank})
			peerMod.stack.Activity().Add(1)
		}
		m.inbox = append(m.inbox, fakeMsg{kind: fkPutDone, hdr: hdr, bytes: ln})
		m.stack.Activity().Add(1)
	})
}

// sendFrags is Put on a transport without RDMA: [off,off+ln) in-band, in
// fragments of at most maxFrag bytes.
func (m *fakeModule) sendFrags(p *ptl.Peer, sd *ptl.SendDesc, off, ln int) {
	hdr := sd.Hdr
	hdr.Type = ptl.TypeFrag
	for end := off + ln; off < end; off += m.maxFrag {
		c := min(m.maxFrag, end-off)
		m.FragBytes += c
		m.Frags++
		hdr.Offset = uint64(off)
		hdr.FragLen = uint32(c)
		m.net.deliver(p.Rank, m.rail, fakeMsg{kind: fkFrag, hdr: hdr, data: append([]byte(nil), sd.Mem.Buf[off:off+c]...), from: m.rank})
		m.net.k.After(m.net.latency, "fake:fragdone", func() {
			m.inbox = append(m.inbox, fakeMsg{kind: fkPutDone, hdr: sd.Hdr, bytes: c})
			m.stack.Activity().Add(1)
		})
	}
}

func (m *fakeModule) Matched(th *simtime.Thread, p *ptl.Peer, rd ptl.RecvDesc) {
	if m.put {
		// Write scheme (Fig. 3): ACK back to the sender with our memory.
		hdr := rd.Hdr
		hdr.Type = ptl.TypeAck
		hdr.RecvReq = rd.ReqID
		m.net.deliver(p.Rank, m.rail, fakeMsg{
			kind: fkAck, hdr: hdr, remote: rd.Mem.E4, from: m.rank,
		})
		return
	}
	// Read scheme (Fig. 4): fetch the remainder from the sender's memory,
	// then FIN_ACK.
	inline := int(rd.Hdr.FragLen)
	rest := int(rd.Hdr.MsgLen) - inline
	hdr := rd.Hdr
	hdr.RecvReq = rd.ReqID
	dst := rd.Mem.Buf
	m.net.k.After(2*m.net.latency, "fake:get", func() {
		for _, peerMod := range m.net.mods[p.Rank] {
			if peerMod.rail != m.rail {
				continue
			}
			src, ok := m.net.mem[p.Rank][elan4.E4Addr(hdr.SrcAddr)]
			if !ok {
				panic("fake: get from unregistered memory")
			}
			copy(dst[inline:inline+rest], src[inline:inline+rest])
			fa := hdr
			fa.Type = ptl.TypeFinAck
			peerMod.inbox = append(peerMod.inbox, fakeMsg{kind: fkFinAck, hdr: fa, from: m.rank})
			peerMod.stack.Activity().Add(1)
		}
		m.inbox = append(m.inbox, fakeMsg{kind: fkGetDone, hdr: hdr, bytes: rest})
		m.stack.Activity().Add(1)
	})
}

func (m *fakeModule) Progress(th *simtime.Thread) {
	for len(m.inbox) > 0 {
		msg := m.inbox[0]
		m.inbox = m.inbox[1:]
		switch msg.kind {
		case fkFirst:
			m.Firsts++
			m.stack.ReceiveFirst(th, m, m.peer(msg.from), msg.hdr, msg.data)
		case fkFrag:
			m.stack.ReceiveFrag(th, msg.hdr, msg.data)
		case fkAck:
			m.stack.AckArrived(th, msg.hdr, msg.remote)
		case fkFin:
			m.stack.RecvProgress(th, msg.hdr.RecvReq, int(msg.hdr.FragLen))
		case fkFinAck:
			m.stack.SendProgress(th, msg.hdr.SendReq, int(msg.hdr.MsgLen))
		case fkPutDone:
			m.stack.SendProgress(th, msg.hdr.SendReq, msg.bytes)
		case fkGetDone:
			m.stack.RecvProgress(th, msg.hdr.RecvReq, msg.bytes)
		}
	}
}

func (m *fakeModule) peer(rank int) *ptl.Peer {
	p, ok := m.peers[rank]
	if !ok {
		p = &ptl.Peer{Rank: rank, Name: fmt.Sprintf("r%d", rank)}
		m.peers[rank] = p
	}
	return p
}

func (m *fakeModule) Finalize(th *simtime.Thread) {}
