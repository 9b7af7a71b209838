// Package fabric models a QsNetII-style switched interconnect: a fat tree
// of crossbar switches with cut-through (wormhole) routing, per-link FIFO
// serialization and full-bisection "fat" up-links. The same machinery with
// different parameters models the Ethernet that the TCP baseline PTL runs
// over.
//
// The fabric carries opaque packets between numbered ports (one port per
// NIC). It is purely event-driven: a Send computes the packet's path,
// reserves each link for its serialization time, and schedules delivery at
// the receiving port's handler. Packets between the same pair of ports are
// delivered in send order (deterministic routing, FIFO links).
//
// The fabric is the boundary between kernel shards, and every send is made
// in two halves whatever the shard count. A port's node→switch up-link is
// exclusive to that port, so its reservation (and the onWire completion
// the NIC DMA engine waits for) happens inline on the sending entity's
// shard; the rest of the path crosses links shared with other senders, so
// it goes through Sched.Commit: run on the spot when the sender is on the
// coordinator, replayed at the epoch barrier in deterministic (send time,
// source entity, source sequence) order when it is on a worker. Deliveries
// are scheduled onto the destination port's entity, which is what bounds
// the engine's lookahead: no packet can affect another shard sooner than
// one WireLatency after its send.
package fabric

import (
	"fmt"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Params describes one fabric's physical characteristics.
type Params struct {
	// LinkBandwidth is the payload rate of a base (node-to-switch) link,
	// in bytes/second. Up-links between switch levels are "fat": level l
	// carries Arity^l times this rate, preserving full bisection.
	LinkBandwidth float64
	// WireLatency is the propagation delay of one link.
	WireLatency simtime.Duration
	// SwitchLatency is the crossing time of one switch crossbar.
	SwitchLatency simtime.Duration
	// MTU is the largest payload a single packet may carry. Senders (NIC
	// DMA engines) chunk larger transfers.
	MTU int
	// PacketOverhead is header/CRC bytes added to every packet on the wire.
	PacketOverhead int
	// Arity is the fan-out of each switch level (ports per side). A
	// quaternary fat tree has arity 4.
	Arity int
	// LossRate is the per-packet probability of a CRC error on the path.
	// QsNet's link layer detects and retransmits corrupted packets
	// in order (stop-and-go on the link), so a loss costs an extra
	// serialization pass plus RetryDelay but never reaches software and
	// never reorders — which is how the hardware keeps the reliable,
	// in-order guarantee upper layers assume.
	LossRate float64
	// RetryDelay is the link-level retransmission turnaround.
	RetryDelay simtime.Duration
}

// Packet is one wire packet. Payload is opaque to the fabric.
type Packet struct {
	Src, Dst int // port numbers
	Size     int // payload bytes (≤ MTU)
	Payload  any
}

// Handler receives packets delivered to a port. The packet is only valid
// for the duration of the call: it lives in a delivery slot the fabric
// reuses afterwards, so a handler must take what it needs (typically the
// Payload) rather than retain the pointer.
type Handler func(pkt *Packet)

// delivery is a pooled delivery-event context. Its closure is allocated
// once per pooled entry and reused for every packet it delivers, so the
// per-packet delivery schedule costs no allocation. Deliveries pool per
// destination port: the handler runs (and recycles) on the destination
// entity's shard. The packet rides in the delivery by value, as it rode in
// the source port's flight before: each pool is filled and drained on one
// side only, so a one-way stream stops allocating once the flights and
// deliveries it keeps in the air exist.
type delivery struct {
	pkt Packet
	at  simtime.Time
	fn  func()
}

// flight is the pooled context of a Send's committed half; like a
// delivery's, its closure is allocated once per pooled entry. Flights pool
// per source port: Send takes one on the source entity's shard and the
// commit hands it back — on that shard, or at a barrier, when no shard runs.
type flight struct {
	pkt  Packet
	wire int
	// head and tail are when the head flit and the tail leave the source
	// up-link's wire.
	head, tail simtime.Time
	fn         func()
}

// link is a directed link with FIFO serialization.
type link struct {
	bw       float64 // bytes/sec
	nextFree simtime.Time
	// stats
	packets int64
	bytes   int64
}

// reserve books the link for wire bytes whose head flit arrives at head:
// the packet queues behind whatever holds the link, then holds it for its
// serialization time. It returns when serialization starts and when it is
// done.
func (lk *link) reserve(head simtime.Time, wire int) (start, done simtime.Time) {
	start = head
	if lk.nextFree > start {
		start = lk.nextFree
	}
	done = start.Add(simtime.BytesAt(wire, lk.bw))
	lk.nextFree = done
	lk.packets++
	lk.bytes += int64(wire)
	return start, done
}

// portState is the per-port slice of fabric state: everything a sending
// or receiving entity touches on its own shard. Counters, free lists and
// the trace recorder live here so concurrent shards never share them; the
// Network-level accessors sum across ports.
type portState struct {
	sc      simtime.Sched
	tracer  *trace.Recorder
	handler Handler
	// uplink is the port's exclusive node→switch link, resolved on first
	// use (see Network.uplink).
	uplink *link

	deliveries bufpool.FreeList[delivery]
	flights    bufpool.FreeList[flight]

	sent      int64
	delivered int64
	bytesOut  int64
	bytesIn   int64
}

// Network is a fat-tree fabric connecting a fixed number of ports.
type Network struct {
	k      *simtime.Kernel
	p      Params
	nports int
	arity  int
	levels int
	ports  []portState

	// up and down hold the directed links, indexed [level][subtree]
	// (level 0 "switch" indices are port numbers, so level 1 has one slot
	// per port, level 2 one per leaf switch, and so on). The per-level
	// pointer slices are preallocated at New — O(nports·arity/(arity-1))
	// total — while the links themselves are still created on first use,
	// so a 4096-port tree costs a few slices up front instead of a pair
	// of maps grown to every link ever touched.
	up   [][]*link
	down [][]*link
	// span[l] is arity^l, the number of ports under one level-l switch.
	// Routes are computed from it and the two port numbers (see hop).
	span []int

	retransmits int64
}

// SetTracer attaches a cross-layer event recorder to every port (nil
// detaches). Sharded clusters bind per-port recorders via BindPort
// instead, so each shard records into its own buffer.
func (n *Network) SetTracer(r *trace.Recorder) {
	for i := range n.ports {
		n.ports[i].tracer = r
	}
}

// BindPort associates port id with an entity scheduling context and a
// trace recorder, so that its injections and deliveries run on the shard
// owning the entity; an unbound port belongs to the global entity. It must
// be called during setup, before the kernel runs.
func (n *Network) BindPort(id int, sc simtime.Sched, r *trace.Recorder) {
	if id < 0 || id >= n.nports {
		panic(fmt.Sprintf("fabric: bind of invalid port %d", id))
	}
	ps := &n.ports[id]
	ps.sc = sc
	ps.tracer = r
}

// uplink returns port id's exclusive node→switch link. Only the port's own
// entity and coordinator-context code ask for it, and its slot in the link
// table belongs to the port alone, so creating it on first use touches no
// state another shard can reach.
func (n *Network) uplink(id int) *link {
	ps := &n.ports[id]
	if ps.uplink == nil {
		ps.uplink = n.linkFor(n.up, 1, id)
	}
	return ps.uplink
}

func (n *Network) tracePkt(kind trace.Kind, at simtime.Time, src, dst, size int) {
	// Rank is the port acting; Peer the far end from its point of view.
	rank, peer := src, dst
	if kind == trace.PktDelivered {
		rank, peer = dst, src
	}
	r := n.ports[rank].tracer
	if r == nil {
		return
	}
	r.Record(trace.Event{
		At: at, Rank: rank, Layer: trace.LayerFabric, Kind: kind,
		Peer: peer, Bytes: size,
	})
}

// New builds a fabric with nports ports. The tree has as many levels as
// needed for the arity; eight nodes on an arity-8 radix fit under a single
// switch, matching the paper's QS-8A testbed.
func New(k *simtime.Kernel, p Params, nports int) *Network {
	if nports < 1 {
		panic("fabric: need at least one port")
	}
	if p.Arity < 2 {
		p.Arity = 4
	}
	if p.MTU <= 0 {
		panic("fabric: MTU must be positive")
	}
	n := &Network{
		k:      k,
		p:      p,
		nports: nports,
		arity:  p.Arity,
		ports:  make([]portState, nports),
	}
	if p.LossRate > 0 && k.Sharded() > 0 {
		// Loss draws consume the kernel's global random stream in send
		// order, and a lost pass books shared links from the sender: neither
		// has a shard-independent definition.
		panic("fabric: LossRate > 0 is incompatible with a sharded kernel")
	}
	for i := range n.ports {
		n.ports[i].sc = k.SchedFor(simtime.GlobalEntity)
	}
	n.levels = 1
	capacity := n.arity
	for capacity < nports {
		capacity *= n.arity
		n.levels++
	}
	// Link tables: level l has one slot per level-(l-1) subtree.
	n.up = make([][]*link, n.levels+1)
	n.down = make([][]*link, n.levels+1)
	n.span = make([]int, n.levels+1)
	n.span[0] = 1
	for l := 1; l <= n.levels; l++ {
		count := (nports + n.span[l-1] - 1) / n.span[l-1]
		n.up[l] = make([]*link, count)
		n.down[l] = make([]*link, count)
		n.span[l] = n.span[l-1] * n.arity
	}
	return n
}

// Params returns the fabric parameters.
func (n *Network) Params() Params { return n.p }

// Attach installs the receive handler for port id. A port has exactly one
// owner; attaching twice indicates two NICs (or transports) claiming the
// same physical port and panics.
func (n *Network) Attach(id int, h Handler) {
	if id < 0 || id >= n.nports {
		panic(fmt.Sprintf("fabric: attach to invalid port %d", id))
	}
	if n.ports[id].handler != nil {
		panic(fmt.Sprintf("fabric: port %d already attached", id))
	}
	n.ports[id].handler = h
}

// linkFor returns (creating on demand) the directed link of table m between
// level l-1 and level l above subtree sw. Level 0 "switch" indices are port
// numbers (the node-NIC link).
func (n *Network) linkFor(m [][]*link, l, sw int) *link {
	lk := m[l][sw]
	if lk == nil {
		bw := n.p.LinkBandwidth
		// Fat up-links: multiply bandwidth per level above the first.
		for i := 1; i < l; i++ {
			bw *= float64(n.arity)
		}
		lk = &link{bw: bw}
		m[l][sw] = lk
	}
	return lk
}

// lca returns the level of the lowest switch above both of two distinct
// ports. The up-down route between them climbs to it and back down:
// 2·lca links and 2·lca−1 switches.
func (n *Network) lca(src, dst int) int {
	l := 1
	for src/n.span[l] != dst/n.span[l] {
		l++
	}
	return l
}

// hop returns link i of the route from src to dst through level lca: the
// up-link above src's level-i subtree while climbing (i < lca), then the
// down-link at level l = 2·lca − i into dst's level-(l−1) subtree. Routes
// are deterministic, so one is computed from the port numbers on every use
// and never stored. Only coordinator-context code may ask past hop 0.
func (n *Network) hop(src, dst, lca, i int) *link {
	if i < lca {
		return n.linkFor(n.up, i+1, src/n.span[i])
	}
	l := 2*lca - i
	return n.linkFor(n.down, l, dst/n.span[l-1])
}

// Send injects a packet at its source port. Delivery is scheduled at the
// time implied by cut-through routing: the head flit advances hop by hop
// (queuing behind busy links), and the tail follows one serialization time
// behind on the bottleneck link. onWire, if non-nil, runs when the source
// link has finished serializing the packet (the moment a NIC's DMA engine
// is free to start the next packet).
//
// Send runs on the source entity's shard. The exclusive up-link is booked
// inline — it fixes the onWire time the sending NIC blocks on, with no
// shared state touched — and the shared remainder of the path is committed.
func (n *Network) Send(pkt *Packet, onWire func()) {
	if pkt.Size < 0 || pkt.Size > n.p.MTU {
		panic(fmt.Sprintf("fabric: packet size %d outside [0,%d]", pkt.Size, n.p.MTU))
	}
	if pkt.Src < 0 || pkt.Src >= n.nports || pkt.Dst < 0 || pkt.Dst >= n.nports {
		panic(fmt.Sprintf("fabric: bad ports %d->%d", pkt.Src, pkt.Dst))
	}
	ps := &n.ports[pkt.Src]
	now := ps.sc.Now()
	ps.sent++
	ps.bytesOut += int64(pkt.Size)
	n.tracePkt(trace.PktSent, now, pkt.Src, pkt.Dst, pkt.Size)

	if pkt.Src == pkt.Dst {
		// NIC loopback: no wire crossing, one switch-equivalent latency,
		// and the packet never leaves the entity.
		n.deliverAt(now.Add(n.p.SwitchLatency), *pkt)
		if onWire != nil {
			ps.sc.At(now.Add(n.p.SwitchLatency), "fabric:onwire-loop", onWire)
		}
		return
	}
	// The packet is copied into the flight: the caller's value never
	// escapes into the fabric.
	f := n.getFlight(ps)
	f.pkt, f.wire = *pkt, pkt.Size+n.p.PacketOverhead
	head := now
	if n.p.LossRate > 0 {
		// No worker shards (New checked): this is coordinator context.
		head = n.lostPasses(pkt.Src, pkt.Dst, f.wire, now)
	}
	start, done := n.uplink(pkt.Src).reserve(head, f.wire)
	f.head, f.tail = start.Add(n.p.WireLatency), done.Add(n.p.WireLatency)
	if onWire != nil {
		ps.sc.At(done, "fabric:onwire", onWire)
	}
	ps.sc.Commit("fabric:route", f.fn)
}

// getFlight takes a flight from the source port's free list, or allocates
// one with its commit closure.
func (n *Network) getFlight(ps *portState) *flight {
	f := ps.flights.Get()
	if f == nil {
		f = new(flight)
		f.fn = func() { n.finishSend(ps, f) }
	}
	return f
}

// walk carries wire bytes over hops from, from+1, … of the route from src
// to dst through level lca, cut-through: the head flit reaches the next
// link one wire latency after it started on this one, and the tail clears
// a link one wire latency after its serialization. It returns the later of
// tail and the latest tail time on those links.
func (n *Network) walk(src, dst, lca, from, wire int, head, tail simtime.Time) simtime.Time {
	for i := from; i < 2*lca; i++ {
		start, done := n.hop(src, dst, lca, i).reserve(head, wire)
		head = start.Add(n.p.WireLatency)
		if t := done.Add(n.p.WireLatency); t > tail {
			tail = t
		}
	}
	return tail
}

// lostPasses draws the packet's CRC losses. The link layer retransmits in
// order: each lost pass costs a full serialization over the whole path plus
// the retry turnaround. It returns when the pass that gets through starts.
func (n *Network) lostPasses(src, dst, wire int, head simtime.Time) simtime.Time {
	lca := n.lca(src, dst)
	//lint:allow kernelown one global loss stream drawn in send order; New refuses LossRate > 0 on a kernel with workers (ROADMAP 1b)
	for lost := 0; n.k.Rand().Float64() < n.p.LossRate && lost < 99; lost++ {
		n.retransmits++
		head = n.walk(src, dst, lca, 0, wire, head, 0).Add(n.p.RetryDelay)
	}
	return head
}

// finishSend is the committed half of Send: book every link past the
// source up-link, then schedule the delivery onto the destination entity.
// Across senders on worker shards the order is the mailbox's (send time,
// source entity, source sequence) order.
func (n *Network) finishSend(ps *portState, f *flight) {
	pkt := f.pkt
	lca := n.lca(pkt.Src, pkt.Dst)
	tail := n.walk(pkt.Src, pkt.Dst, lca, 1, f.wire, f.head, f.tail)
	n.deliverAt(tail.Add(simtime.Duration(2*lca-1)*n.p.SwitchLatency), pkt)
	ps.flights.Put(f, flight{fn: f.fn})
}

// SendMulti injects a hardware multicast: the switches replicate the
// packet down the tree, so each link on the union of paths carries it
// exactly once (this is QsNet's hardware broadcast). payload builds the
// per-destination payload (destinations may need different context
// routing); size and src are shared. Destinations equal to src get a
// loopback delivery, which stays entity-local; one inline booking of the
// exclusive up-link covers all remote destinations (the hardware
// replicates past it), and the shared remainder of the union of paths is
// committed.
func (n *Network) SendMulti(src, size int, dsts []int, payload func(dst int) any, onWire func()) {
	if size < 0 || size > n.p.MTU {
		panic(fmt.Sprintf("fabric: multicast size %d outside [0,%d]", size, n.p.MTU))
	}
	ps := &n.ports[src]
	now := ps.sc.Now()
	var remote []Packet
	for _, dst := range dsts {
		ps.sent++
		ps.bytesOut += int64(size)
		n.tracePkt(trace.PktSent, now, src, dst, size)
		q := Packet{Src: src, Dst: dst, Size: size, Payload: payload(dst)}
		if dst == src {
			n.deliverAt(now.Add(n.p.SwitchLatency), q)
			continue
		}
		remote = append(remote, q)
	}
	wired := now
	if len(remote) > 0 {
		wire := size + n.p.PacketOverhead
		start, done := n.uplink(src).reserve(now, wire)
		wired = done
		ps.sc.Commit("fabric:mcast", func() {
			n.finishMulti(remote, wire, start, done)
		})
	}
	if onWire != nil {
		ps.sc.At(wired, "fabric:onwire-multi", onWire)
	}
}

// finishMulti is the committed half of SendMulti. starts holds when each
// link of the union of paths past the inline up-link booking began
// serializing the packet, so a link shared by several destinations is
// booked once.
func (n *Network) finishMulti(pkts []Packet, wire int, upStart, upDone simtime.Time) {
	starts := make(map[*link]simtime.Time)
	for _, q := range pkts {
		lca := n.lca(q.Src, q.Dst)
		head := upStart.Add(n.p.WireLatency)
		tail := upDone.Add(n.p.WireLatency)
		for i := 1; i < 2*lca; i++ {
			lk := n.hop(q.Src, q.Dst, lca, i)
			start, seen := starts[lk]
			if !seen {
				start, _ = lk.reserve(head, wire)
				starts[lk] = start
			}
			head = start.Add(n.p.WireLatency)
			if t := start.Add(simtime.BytesAt(wire, lk.bw)).Add(n.p.WireLatency); t > tail {
				tail = t
			}
		}
		n.deliverAt(tail.Add(simtime.Duration(2*lca-1)*n.p.SwitchLatency), q)
	}
}

func (n *Network) deliverAt(t simtime.Time, pkt Packet) {
	ps := &n.ports[pkt.Dst]
	d := ps.deliveries.Get()
	if d == nil {
		d = new(delivery)
		d.fn = func() {
			p := &d.pkt
			ps.delivered++
			ps.bytesIn += int64(p.Size)
			n.tracePkt(trace.PktDelivered, d.at, p.Src, p.Dst, p.Size)
			h := ps.handler
			if h == nil {
				panic(fmt.Sprintf("fabric: no handler attached to port %d", p.Dst))
			}
			h(p)
			// Per the Handler contract the packet is dead once the handler
			// returns; recycle the slot that held it.
			ps.deliveries.Put(d, delivery{fn: d.fn})
		}
	}
	d.pkt = pkt
	d.at = t
	ps.sc.At(t, "fabric:deliver", d.fn)
}

// Stats reports totals for tests and tools, summed across ports.
func (n *Network) Stats() (sent, delivered int64) {
	for i := range n.ports {
		sent += n.ports[i].sent
		delivered += n.ports[i].delivered
	}
	return sent, delivered
}

// PortCounters is one port's cumulative traffic snapshot — what the
// telemetry sampler (obs.Sampler) reads on each tick. Sent/Delivered and
// BytesOut/BytesIn are payload-level port counters; UplinkPackets and
// UplinkBytes are the wire-level totals (payload plus overhead, every
// serialization pass) of the port's exclusive node→switch up-link, the
// hop whose utilization bounds what the NIC can inject.
type PortCounters struct {
	Sent, Delivered   int64
	BytesOut, BytesIn int64
	UplinkPackets     int64
	UplinkBytes       int64
}

// PortCounters returns port id's traffic snapshot. All counters are
// entity-local (bumped on the owning shard) or replayed at epoch
// barriers before any coordinator event, so reading them from a
// GlobalEntity timer tick is deterministic at any shard count.
func (n *Network) PortCounters(id int) PortCounters {
	if id < 0 || id >= n.nports {
		panic(fmt.Sprintf("fabric: counters of invalid port %d", id))
	}
	ps, up := &n.ports[id], n.uplink(id)
	return PortCounters{
		Sent: ps.sent, Delivered: ps.delivered,
		BytesOut: ps.bytesOut, BytesIn: ps.bytesIn,
		UplinkPackets: up.packets, UplinkBytes: up.bytes,
	}
}

// Retransmits reports link-level CRC retransmissions.
func (n *Network) Retransmits() int64 { return n.retransmits }

// BytesSent reports total payload bytes injected (excluding overhead).
func (n *Network) BytesSent() int64 {
	var b int64
	for i := range n.ports {
		b += n.ports[i].bytesOut
	}
	return b
}

// RouteCacheStats is kept for tools that report route-cache counters.
// Routes are computed from the port numbers and never cached, so every
// route counts as a hit — hits is the packets sent — and misses is always 0.
func (n *Network) RouteCacheStats() (hits, misses int64) {
	sent, _ := n.Stats()
	return sent, 0
}
