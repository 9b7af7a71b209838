// Virtual-time telemetry sampler (DESIGN.md §8.4): a kernel-timer-driven
// observer that snapshots the stack's instantaneous gauges — receive/
// completion queue depth, progress duty, pending requests, send-buffer
// occupancy — and the fabric's per-link traffic counters into per-rank
// and per-link ring buffers on a fixed virtual-time period, yielding
// rank×time and link×time matrices. Attach one through
// cluster.Spec.Sampler; when absent nothing is armed and the run is
// untouched (zero perturbation), and like every observer the sampler
// reads state but never charges virtual time to any simulated entity.
//
// Determinism at any shard count: the tick runs on the coordinator
// (GlobalEntity) at k·period + 1ps. Under the conservative engine every
// worker event strictly before the tick time has executed — and every
// deferred fabric commit has replayed — before a coordinator event runs,
// so the counters the tick reads are exactly the state at that instant
// regardless of sharding; the 1ps phase offset keeps tick times off the
// instants protocol events land on, where the sequential phase's tie order
// (insertion sequence) and an epoch's tie order (coordinator first) could
// disagree. Trace emission iterates node-major, matching the per-node
// recorder merge order (time, then node index), so a traced run's
// GaugeSample stream is byte-identical at -shards 1 and -shards N.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// DefaultSamplePeriod is the sampling period used when a Sampler is
// built with period 0: fine enough to resolve collective phases (tens of
// microseconds) without swamping the trace stream.
const DefaultSamplePeriod = 50 * simtime.Microsecond

// Gauge identifies one per-rank sampled quantity. The values are the
// Tag of GaugeSample trace events (LayerPML), so renderers and the
// Perfetto exporter can name tracks without a side table.
type Gauge uint8

// Per-rank gauges, in sample-vector order.
const (
	GaugeRecvQDepth   Gauge = iota // NIC receive queue occupancy
	GaugeCQDepth                   // completion queue occupancy
	GaugeDuty                      // progress duty cycle, per-mille
	GaugePendingSends              // incomplete PML send requests
	GaugePendingRecvs              // incomplete PML receive requests
	GaugeUnexpected                // unexpected-message queue depth
	GaugeSendBufs                  // NIC send buffers in flight

	NumRankGauges
)

func (g Gauge) String() string {
	switch g {
	case GaugeRecvQDepth:
		return "recvq-depth"
	case GaugeCQDepth:
		return "cq-depth"
	case GaugeDuty:
		return "duty-permille"
	case GaugePendingSends:
		return "pending-sends"
	case GaugePendingRecvs:
		return "pending-recvs"
	case GaugeUnexpected:
		return "unexpected-depth"
	case GaugeSendBufs:
		return "sendbufs-inflight"
	}
	return fmt.Sprintf("Gauge(%d)", uint8(g))
}

// LinkGauge identifies one per-link sampled quantity — the Tag of
// LayerFabric GaugeSample events. All three are cumulative counters;
// renderers difference adjacent ticks to recover per-interval rates.
type LinkGauge uint8

// Per-link gauges, in sample-vector order.
const (
	LinkGaugePackets LinkGauge = iota // wire packets on the node's up-link
	LinkGaugeBytes                    // wire bytes on the node's up-link
	LinkGaugeBytesIn                  // payload bytes delivered to the port

	NumLinkGauges
)

func (g LinkGauge) String() string {
	switch g {
	case LinkGaugePackets:
		return "uplink-pkts"
	case LinkGaugeBytes:
		return "uplink-bytes"
	case LinkGaugeBytesIn:
		return "port-bytes-in"
	}
	return fmt.Sprintf("LinkGauge(%d)", uint8(g))
}

// RankProbeFn reads one rank's gauge vector at a tick instant.
type RankProbeFn func(now simtime.Time) [NumRankGauges]int64

// LinkProbeFn reads one link's cumulative counter vector.
type LinkProbeFn func() [NumLinkGauges]int64

// rankSeries is one rank's registration plus its sample ring (see
// Sampler.head for the ring discipline).
type rankSeries struct {
	rank  int
	probe RankProbeFn
	rec   *trace.Recorder
	ring  [][NumRankGauges]int64
}

// linkSeries is one link's registration plus its sample ring. rail
// disambiguates multi-rail fabrics sharing the same port number.
type linkSeries struct {
	port, rail int
	probe      LinkProbeFn
	rec        *trace.Recorder
	ring       [][NumLinkGauges]int64
}

// samplerNode groups one node's registrations: tick emission iterates
// nodes in index order (links, then ranks) so the shared tracer's record
// order without worker shards equals the per-node merge order with them.
type samplerNode struct {
	links []*linkSeries
	ranks []*rankSeries
}

// Sampler is the virtual-time telemetry sampler. Create one with
// NewSampler, hand it to cluster.Spec.Sampler, and read the matrices
// (RankMatrix/LinkMatrix) after the run. All methods run inside the
// cooperative simulation; no locking.
type Sampler struct {
	period simtime.Duration
	limit  int // ticks retained per ring (0 = unbounded)

	k     *simtime.Kernel
	nodes []*samplerNode
	times []simtime.Time // tick stamps, ring-aligned with every series
	// head is the slot of the oldest retained tick. Every ring (times and
	// each series) has the same length and fills in step, so one index
	// serves them all: it stays 0 until a bounded ring is full, and from
	// then on a tick overwrites slot head and advances it — nothing moves.
	head    int
	tick    uint64 // ticks taken, including evicted ones
	evicted uint64
}

// NewSampler returns a sampler with the given virtual-time period
// (0 = DefaultSamplePeriod) retaining at most limit ticks per series
// (0 = unbounded; older ticks are evicted ring-style).
func NewSampler(period simtime.Duration, limit int) *Sampler {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	return &Sampler{period: period, limit: limit}
}

// Period returns the configured sampling period.
func (s *Sampler) Period() simtime.Duration { return s.period }

// Ticks returns how many sampling ticks have run (including any whose
// samples were evicted by the ring limit).
func (s *Sampler) Ticks() uint64 { return s.tick }

// Bind attaches the sampler to the simulation kernel and arms the tick
// chain; the cluster does this at construction. The chain is built from
// cancel-on-idle timers, so the sampler never keeps a finished run
// alive, and it runs on the coordinator entity in both engines.
func (s *Sampler) Bind(k *simtime.Kernel) {
	if s.k != nil {
		return
	}
	s.k = k
	g := k.SchedFor(simtime.GlobalEntity)
	var arm func(d simtime.Duration)
	arm = func(d simtime.Duration) {
		g.AfterCancelable(d, "obs:sampler", func() {
			s.takeSample()
			arm(s.period)
		})
	}
	// Phase offset: first tick at period + 1ps, then every period.
	arm(s.period + simtime.Picosecond)
}

// node returns (growing on demand) the registration group for one node.
func (s *Sampler) node(n int) *samplerNode {
	for len(s.nodes) <= n {
		s.nodes = append(s.nodes, &samplerNode{})
	}
	return s.nodes[n]
}

// RegisterRank installs one rank's gauge probe. node is the rank's
// placement (emission is node-major); rec is the recorder GaugeSample
// events go to (nil records nothing — ring buffers still fill).
// A series registered after ticks have run is zero-padded so its ring
// stays column-aligned with every other series. Re-registering a rank
// replaces its probe and resets its ring.
func (s *Sampler) RegisterRank(rank, node int, rec *trace.Recorder, probe RankProbeFn) {
	nd := s.node(node)
	fresh := &rankSeries{rank: rank, probe: probe, rec: rec,
		ring: make([][NumRankGauges]int64, len(s.times))}
	for i, rs := range nd.ranks {
		if rs.rank == rank {
			nd.ranks[i] = fresh
			return
		}
	}
	nd.ranks = append(nd.ranks, fresh)
	sort.Slice(nd.ranks, func(i, j int) bool { return nd.ranks[i].rank < nd.ranks[j].rank })
}

// RegisterLink installs one link's counter probe: port is the node's
// fabric port, rail the Quadrics rail index (0 on single-rail specs).
// Like RegisterRank, late registrations are zero-padded for alignment.
func (s *Sampler) RegisterLink(port, rail int, rec *trace.Recorder, probe LinkProbeFn) {
	nd := s.node(port)
	fresh := &linkSeries{port: port, rail: rail, probe: probe, rec: rec,
		ring: make([][NumLinkGauges]int64, len(s.times))}
	for i, ls := range nd.links {
		if ls.port == port && ls.rail == rail {
			nd.links[i] = fresh
			return
		}
	}
	nd.links = append(nd.links, fresh)
	sort.Slice(nd.links, func(i, j int) bool { return nd.links[i].rail < nd.links[j].rail })
}

// takeSample is one coordinator tick: read every probe, append to the
// rings, and (when recorders are attached) emit one GaugeSample event
// per gauge. Iteration is node-major — see the package comment.
func (s *Sampler) takeSample() {
	now := s.k.Now()
	s.tick++
	// slot is where this tick's column goes in every ring: appended while
	// the rings grow, over the oldest column once they are full.
	slot := len(s.times)
	if s.limit > 0 && slot >= s.limit {
		slot = s.head
		s.head = (s.head + 1) % s.limit
		s.evicted++
		s.times[slot] = now
	} else {
		s.times = append(s.times, now)
	}
	for _, nd := range s.nodes {
		for _, ls := range nd.links {
			v := ls.probe()
			if slot < len(ls.ring) {
				ls.ring[slot] = v
			} else {
				ls.ring = append(ls.ring, v)
			}
			if ls.rec != nil {
				for g := LinkGauge(0); g < NumLinkGauges; g++ {
					ls.rec.Record(trace.Event{
						At: now, Rank: ls.port, Layer: trace.LayerFabric,
						Kind: trace.GaugeSample, ReqID: s.tick,
						Peer: ls.rail, Tag: int(g), Bytes: int(v[g]),
						Corr: 0, // an instant sample, deliberately uncorrelated
					})
				}
			}
		}
		for _, rs := range nd.ranks {
			v := rs.probe(now)
			if slot < len(rs.ring) {
				rs.ring[slot] = v
			} else {
				rs.ring = append(rs.ring, v)
			}
			if rs.rec != nil {
				for g := Gauge(0); g < NumRankGauges; g++ {
					rs.rec.Record(trace.Event{
						At: now, Rank: rs.rank, Layer: trace.LayerPML,
						Kind: trace.GaugeSample, ReqID: s.tick,
						Peer: -1, Tag: int(g), Bytes: int(v[g]),
						Corr: 0, // an instant sample, deliberately uncorrelated
					})
				}
			}
		}
	}
}

// Series is one row of a telemetry matrix: a stable label plus one
// value per retained tick (column order matches Matrix.Times).
type Series struct {
	Label string
	Vals  []int64
}

// Matrix is a gauge's rank×time (or link×time) view: every retained
// tick's stamp and one row per registered series. Evicted reports ticks
// lost to the ring limit (their columns are simply absent).
type Matrix struct {
	Gauge   string
	Times   []simtime.Time
	Rows    []Series
	Evicted uint64
}

// stamps returns the retained tick stamps oldest first: the ring from
// head on, then the part before it.
func (s *Sampler) stamps() []simtime.Time {
	return append(append([]simtime.Time(nil), s.times[s.head:]...), s.times[:s.head]...)
}

// RankMatrix assembles gauge g's rank×time matrix, rows sorted by rank.
func (s *Sampler) RankMatrix(g Gauge) Matrix {
	m := Matrix{Gauge: g.String(), Times: s.stamps(), Evicted: s.evicted}
	var all []*rankSeries
	for _, nd := range s.nodes {
		all = append(all, nd.ranks...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rank < all[j].rank })
	for _, rs := range all {
		vals := make([]int64, len(rs.ring))
		for i := range vals {
			vals[i] = rs.ring[(s.head+i)%len(vals)][g]
		}
		m.Rows = append(m.Rows, Series{Label: fmt.Sprintf("rank %3d", rs.rank), Vals: vals})
	}
	return m
}

// LinkMatrix assembles gauge g's link×time matrix, rows sorted by
// (port, rail).
func (s *Sampler) LinkMatrix(g LinkGauge) Matrix {
	m := Matrix{Gauge: g.String(), Times: s.stamps(), Evicted: s.evicted}
	var all []*linkSeries
	for _, nd := range s.nodes {
		all = append(all, nd.links...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].port != all[j].port {
			return all[i].port < all[j].port
		}
		return all[i].rail < all[j].rail
	})
	for _, ls := range all {
		vals := make([]int64, len(ls.ring))
		for i := range vals {
			vals[i] = ls.ring[(s.head+i)%len(vals)][g]
		}
		label := fmt.Sprintf("port %3d", ls.port)
		if ls.rail > 0 {
			label = fmt.Sprintf("port %3d.r%d", ls.port, ls.rail)
		}
		m.Rows = append(m.Rows, Series{Label: label, Vals: vals})
	}
	return m
}

// Deltas converts a cumulative-counter matrix into per-interval
// increments: column i becomes v[i] − v[i−1] (column 0 keeps its value,
// the increment since simulation start). Gauge matrices (instantaneous
// depths) should not be differenced.
func (m Matrix) Deltas() Matrix {
	out := Matrix{Gauge: m.Gauge + " (per interval)", Times: m.Times, Evicted: m.Evicted}
	for _, r := range m.Rows {
		vals := make([]int64, len(r.Vals))
		for i, v := range r.Vals {
			if i == 0 {
				vals[i] = v
			} else {
				vals[i] = v - r.Vals[i-1]
			}
		}
		out.Rows = append(out.Rows, Series{Label: r.Label, Vals: vals})
	}
	return out
}

// heatRamp maps intensity 0..9 to a glyph; zero is blank so quiet cells
// read as whitespace.
const heatRamp = " .:-=+*#%@"

// Heatmap renders the matrix as an ASCII rank×time (or link×time)
// intensity map: one row per series, one glyph per tick, scaled to the
// matrix-wide maximum. maxCols > 0 compresses wider matrices by folding
// adjacent columns with max(), keeping the output terminal-sized.
func (m Matrix) Heatmap(maxCols int) string {
	rows := make([][]int64, len(m.Rows))
	times := m.Times
	for i, r := range m.Rows {
		rows[i] = r.Vals
	}
	fold := 1
	if maxCols > 0 && len(times) > maxCols {
		fold = (len(times) + maxCols - 1) / maxCols
		for i, vals := range rows {
			rows[i] = foldMax(vals, fold)
		}
		times = foldTimes(times, fold)
	}
	var max int64
	for _, vals := range rows {
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rows × %d ticks", m.Gauge, len(m.Rows), len(m.Times))
	if fold > 1 {
		fmt.Fprintf(&b, " (folded ×%d)", fold)
	}
	if len(m.Times) > 0 {
		fmt.Fprintf(&b, ", t=%.1f..%.1fus", m.Times[0].Micros(), m.Times[len(m.Times)-1].Micros())
	}
	fmt.Fprintf(&b, ", max=%d", max)
	if m.Evicted > 0 {
		fmt.Fprintf(&b, " (+%d ticks evicted)", m.Evicted)
	}
	b.WriteString("\n")
	for i, r := range m.Rows {
		fmt.Fprintf(&b, "  %-12s |", r.Label)
		for _, v := range rows[i] {
			b.WriteByte(heatRamp[heatLevel(v, max)])
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// heatLevel scales v into the ramp: zero stays blank, any non-zero value
// renders at least the faintest glyph.
func heatLevel(v, max int64) int {
	if v <= 0 || max <= 0 {
		return 0
	}
	lvl := int(v * int64(len(heatRamp)-1) / max)
	if lvl < 1 {
		lvl = 1
	}
	return lvl
}

// foldMax reduces vals by taking the max of each fold-sized group.
func foldMax(vals []int64, fold int) []int64 {
	var out []int64
	for i := 0; i < len(vals); i += fold {
		m := vals[i]
		for j := i + 1; j < i+fold && j < len(vals); j++ {
			if vals[j] > m {
				m = vals[j]
			}
		}
		out = append(out, m)
	}
	return out
}

// foldTimes keeps the first stamp of each fold-sized group.
func foldTimes(times []simtime.Time, fold int) []simtime.Time {
	var out []simtime.Time
	for i := 0; i < len(times); i += fold {
		out = append(out, times[i])
	}
	return out
}
