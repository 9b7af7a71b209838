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

var gaugeNames = [NumRankGauges]string{
	"recvq-depth", "cq-depth", "duty-permille", "pending-sends",
	"pending-recvs", "unexpected-depth", "sendbufs-inflight",
}

func (g Gauge) String() string { return enumName(gaugeNames[:], g, "Gauge") }

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

var linkGaugeNames = [NumLinkGauges]string{"uplink-pkts", "uplink-bytes", "port-bytes-in"}

func (g LinkGauge) String() string { return enumName(linkGaugeNames[:], g, "LinkGauge") }

// enumName returns the name of v, or typ(v) when v has none.
func enumName[T ~uint8](names []string, v T, typ string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, uint8(v))
}

// RankProbeFn reads one rank's gauge vector at a tick instant.
type RankProbeFn func(now simtime.Time) [NumRankGauges]int64

// LinkProbeFn reads one link's cumulative counter vector.
type LinkProbeFn func() [NumLinkGauges]int64

// series is one registration — a rank's gauges or a link's counters —
// plus its sample rings, one per gauge (see Sampler.head for the ring
// discipline). A link's probe fills the first NumLinkGauges slots of the
// vector.
type series struct {
	link     bool // a link's counters, else a rank's gauges
	id, rail int  // the rank (rail 0), or the link's port and rail
	probe    RankProbeFn
	rec      *trace.Recorder
	ring     [][]int64 // by gauge
}

// before orders series: links before ranks, then by (id, rail). A node's
// series tick in this order, so the shared tracer's record order without
// worker shards equals the per-node merge order with them.
func (a *series) before(b *series) bool {
	if a.link != b.link {
		return a.link
	}
	return a.id < b.id || a.id == b.id && a.rail < b.rail
}

// Sampler is the virtual-time telemetry sampler. Create one with
// NewSampler, hand it to cluster.Spec.Sampler, and read the matrices
// (RankMatrix/LinkMatrix) after the run. All methods run inside the
// cooperative simulation; no locking.
type Sampler struct {
	period simtime.Duration
	limit  int // ticks retained per ring (0 = unbounded)

	k     *simtime.Kernel
	nodes [][]*series    // each node's series, in before order
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
	// Phase offset: first tick at period + 1ps, then every period.
	every(k, s.period+simtime.Picosecond, s.period, "obs:sampler", s.takeSample)
}

// every runs fn on the coordinator entity after first and then every
// period, through cancel-on-idle timers, so the chain never keeps a
// finished run alive.
func every(k *simtime.Kernel, first, period simtime.Duration, name string, fn func()) {
	g := k.SchedFor(simtime.GlobalEntity)
	var arm func(d simtime.Duration)
	arm = func(d simtime.Duration) {
		g.AfterCancelable(d, name, func() {
			fn()
			arm(period)
		})
	}
	arm(first)
}

// RegisterRank installs one rank's gauge probe. node is the rank's
// placement (emission is node-major); rec is the recorder GaugeSample
// events go to (nil records nothing — ring buffers still fill).
// A series registered after ticks have run is zero-padded so its ring
// stays column-aligned with every other series. Re-registering a rank
// replaces its probe and resets its ring.
func (s *Sampler) RegisterRank(rank, node int, rec *trace.Recorder, probe RankProbeFn) {
	s.register(node, int(NumRankGauges), &series{id: rank, probe: probe, rec: rec})
}

// RegisterLink installs one link's counter probe: port is the node's
// fabric port, rail the Quadrics rail index (0 on single-rail specs).
// Like RegisterRank, late registrations are zero-padded for alignment.
func (s *Sampler) RegisterLink(port, rail int, rec *trace.Recorder, probe LinkProbeFn) {
	s.register(port, int(NumLinkGauges), &series{link: true, id: port, rail: rail, rec: rec,
		probe: func(simtime.Time) (v [NumRankGauges]int64) {
			c := probe()
			copy(v[:], c[:])
			return v
		}})
}

// register installs se with its rings of gauges on node n, replacing the
// series of the same identity there.
func (s *Sampler) register(n, gauges int, se *series) {
	se.ring = make([][]int64, gauges)
	for g := range se.ring {
		se.ring[g] = make([]int64, len(s.times))
	}
	for len(s.nodes) <= n {
		s.nodes = append(s.nodes, nil)
	}
	nd := s.nodes[n]
	for i, old := range nd {
		if old.link == se.link && old.id == se.id && old.rail == se.rail {
			nd[i] = se
			return
		}
	}
	nd = append(nd, se)
	sort.Slice(nd, func(i, j int) bool { return nd[i].before(nd[j]) })
	s.nodes[n] = nd
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
		for _, se := range nd {
			v := se.probe(now)
			for g, ring := range se.ring {
				if slot < len(ring) {
					ring[slot] = v[g]
				} else {
					se.ring[g] = append(ring, v[g])
				}
			}
			if se.rec == nil {
				continue
			}
			layer, peer := trace.LayerPML, -1
			if se.link {
				layer, peer = trace.LayerFabric, se.rail
			}
			for g := range se.ring {
				se.rec.Record(trace.Event{
					At: now, Rank: se.id, Layer: layer,
					Kind: trace.GaugeSample, ReqID: s.tick,
					Peer: peer, Tag: g, Bytes: int(v[g]),
					Corr: 0, // an instant sample, deliberately uncorrelated
				})
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
func (s *Sampler) stamps() []simtime.Time { return unroll(s.times, s.head) }

// unroll returns a ring's slots oldest first: from head on, then the part
// before it.
func unroll[T any](ring []T, head int) []T {
	return append(append([]T(nil), ring[head:]...), ring[:head]...)
}

// Heatmaps renders the sampler's period and tick count, then the heatmaps
// the tools print, at most maxCols columns each: progress duty,
// receive-queue depth and pending sends per rank, and per-interval uplink
// bytes per link.
func (s *Sampler) Heatmaps(maxCols int) string {
	return fmt.Sprintf("sampler: period %s, %d ticks\n", s.Period(), s.Ticks()) +
		s.RankMatrix(GaugeDuty).Heatmap(maxCols) +
		s.RankMatrix(GaugeRecvQDepth).Heatmap(maxCols) +
		s.RankMatrix(GaugePendingSends).Heatmap(maxCols) +
		s.LinkMatrix(LinkGaugeBytes).Deltas().Heatmap(maxCols)
}

// RankMatrix assembles gauge g's rank×time matrix, rows sorted by rank.
func (s *Sampler) RankMatrix(g Gauge) Matrix { return s.matrix(false, int(g), g.String()) }

// LinkMatrix assembles gauge g's link×time matrix, rows sorted by
// (port, rail).
func (s *Sampler) LinkMatrix(g LinkGauge) Matrix { return s.matrix(true, int(g), g.String()) }

// matrix assembles gauge g of the link (or rank) series, rows in before
// order.
func (s *Sampler) matrix(link bool, g int, name string) Matrix {
	m := Matrix{Gauge: name, Times: s.stamps(), Evicted: s.evicted}
	var all []*series
	for _, nd := range s.nodes {
		for _, se := range nd {
			if se.link == link {
				all = append(all, se)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].before(all[j]) })
	for _, se := range all {
		label := fmt.Sprintf("rank %3d", se.id)
		if se.link {
			label = fmt.Sprintf("port %3d", se.id)
			if se.rail > 0 {
				label = fmt.Sprintf("port %3d.r%d", se.id, se.rail)
			}
		}
		m.Rows = append(m.Rows, Series{Label: label, Vals: unroll(se.ring[g], s.head)})
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
	fold := 1
	if maxCols > 0 && len(m.Times) > maxCols {
		fold = (len(m.Times) + maxCols - 1) / maxCols
	}
	var max int64 // folding keeps each group's maximum: the folded rows' too
	for _, r := range m.Rows {
		for _, v := range r.Vals {
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
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "  %-12s |", r.Label)
		for _, v := range foldMax(r.Vals, fold) {
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
