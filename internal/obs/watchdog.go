// Virtual-time progress watchdog: flags any rank whose request queues are
// non-empty but whose event stream has advanced no virtual time for a
// configurable window — the observable symptom of the completion-queue
// race of §5.3 and of every lost-wakeup bug in a progress engine. The
// watchdog is wired through cluster.Spec.Watchdog and the PML progress
// paths: each progress notification stamps the rank's last-advance time
// and (re)arms one kernel timer; when the timer fires, every registered
// rank that is still busy and has not advanced for a full window is dumped
// as a structured stall diagnostic.
//
// The watchdog reads simulation state but never adds virtual-time cost to
// any simulated entity, so attaching it cannot change a run's latencies —
// only the kernel's event count.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// DefaultStallWindow is the stall threshold used when a Watchdog is built
// with window 0. The largest legitimate event-stream gap in the modelled
// configurations is ~1.1ms (one maximum-size RDMA crossing the wire), so
// ten milliseconds of virtual silence is unambiguous.
const DefaultStallWindow = 10 * simtime.Millisecond

// Probe is one rank's view into its request machinery, registered by the
// cluster at bringup. Busy reports whether any request is pending; Diag
// captures the stall diagnostic when the watchdog trips.
type Probe struct {
	Busy func() bool
	Diag func() StallDiag
}

// StallDiag is the structured state dump of one stalled rank.
type StallDiag struct {
	PendingSends    int
	PendingRecvs    int
	UnexpectedDepth int
	OutstandingDMA  int
	// LastEvents is the final trace event per layer for the rank, newest
	// first, when a recorder was attached; nil otherwise.
	LastEvents []LayerLast
}

// LayerLast is the most recent recorded event of one layer.
type LayerLast struct {
	Layer string
	Kind  string
	At    simtime.Time
}

// StallReport records one detected stall.
type StallReport struct {
	Rank         int
	LastProgress simtime.Time
	DetectedAt   simtime.Time
	Diag         StallDiag
}

// Render formats one report as an indented multi-line diagnostic.
func (r StallReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog: rank %d stalled: no progress since %.3fus (detected at %.3fus, %.3fus of silence)\n",
		r.Rank, r.LastProgress.Micros(), r.DetectedAt.Micros(), r.DetectedAt.Sub(r.LastProgress).Micros())
	fmt.Fprintf(&b, "  pending: sends=%d recvs=%d unexpected=%d outstanding-dma=%d\n",
		r.Diag.PendingSends, r.Diag.PendingRecvs, r.Diag.UnexpectedDepth, r.Diag.OutstandingDMA)
	for _, le := range r.Diag.LastEvents {
		fmt.Fprintf(&b, "  last %-6s event: %-17s @ %.3fus\n", le.Layer, le.Kind, le.At.Micros())
	}
	return b.String()
}

// Watchdog monitors per-rank progress in virtual time. Create one with
// NewWatchdog, hand it to cluster.Spec.Watchdog, and read Stalls() after
// the run. All methods run inside the (cooperative) simulation, so no
// locking is needed.
type Watchdog struct {
	window simtime.Duration
	k      *simtime.Kernel
	rec    *trace.Recorder
	// par is true on a sharded kernel: progress notes only stamp their
	// rank's slot (any shard may note concurrently), and the tick runs as
	// a periodic cancel-on-idle coordinator timer instead of being armed
	// from the (possibly worker-shard) note path.
	par bool

	ranks []watched // by rank: zero until the rank registers
	armed bool
	fired []StallReport
}

// watched is what the watchdog knows of one rank.
type watched struct {
	probe    Probe
	last     simtime.Time // the rank's last progress note
	reported bool         // its stall is on record
}

// NewWatchdog returns a watchdog with the given stall window
// (0 = DefaultStallWindow).
func NewWatchdog(window simtime.Duration) *Watchdog {
	if window <= 0 {
		window = DefaultStallWindow
	}
	return &Watchdog{window: window}
}

// Window returns the configured stall threshold.
func (w *Watchdog) Window() simtime.Duration { return w.window }

// Bind attaches the watchdog to the simulation kernel (the cluster does
// this at construction) and, optionally, to the run's event recorder so
// stall diagnostics can include each layer's last event.
func (w *Watchdog) Bind(k *simtime.Kernel, rec *trace.Recorder) {
	w.k = k
	w.rec = rec
	if k.Sharded() > 0 && !w.par {
		w.par = true
		every(k, w.window, w.window, "obs:watchdog", w.tick)
	}
}

// Register installs one rank's probe. Re-registering a rank replaces its
// probe (process respawn under the same rank).
func (w *Watchdog) Register(rank int, p Probe) {
	if rank >= len(w.ranks) {
		w.ranks = append(w.ranks, make([]watched, rank+1-len(w.ranks))...)
	}
	w.ranks[rank].probe = p
}

// Note stamps rank's last-progress time, as seen on the caller's clock,
// and on a kernel without worker shards arms the timer if idle. It is
// called from the PML's hot paths, so it must stay a couple of field
// touches; with worker shards it writes only the rank's own slot, which is
// safe from the rank's shard because the coordinator reads the slots
// exclusively.
func (w *Watchdog) Note(rank int, now simtime.Time) {
	if rank < len(w.ranks) {
		w.ranks[rank].last = now
	}
	if w.par {
		return
	}
	if !w.armed {
		w.armed = true
		w.k.After(w.window, "obs:watchdog", w.tick)
	}
}

// tick inspects every registered rank, in rank order. A rank is stalled
// when its probe reports pending requests and no progress note for a full
// window; each stall is reported once. The timer rearms only while some
// rank is busy and nothing has been reported — once the run quiesces (or
// a stall is on record), the watchdog stops injecting events so the
// kernel can drain and its own deadlock detection can run.
func (w *Watchdog) tick() {
	now := w.k.Now()
	busy := false
	for rank := range w.ranks {
		r := &w.ranks[rank]
		if r.probe.Busy == nil || !r.probe.Busy() {
			continue
		}
		busy = true
		if now.Sub(r.last) >= w.window && !r.reported {
			r.reported = true
			rep := StallReport{Rank: rank, LastProgress: r.last, DetectedAt: now}
			if r.probe.Diag != nil {
				rep.Diag = r.probe.Diag()
			}
			rep.Diag.LastEvents = w.lastEvents(rank)
			w.fired = append(w.fired, rep)
		}
	}
	if w.par {
		// The periodic cancel-on-idle chain owns rearming.
		return
	}
	if !busy || len(w.fired) > 0 {
		// Disarm; the next progress note (from a still-live rank) rearms.
		w.armed = false
		return
	}
	w.k.After(w.window, "obs:watchdog", w.tick)
}

// lastEvents scans the attached recorder, in place, for rank's final
// event per layer, newest first.
func (w *Watchdog) lastEvents(rank int) []LayerLast {
	if w.rec == nil {
		return nil
	}
	byLayer := make(map[trace.Layer]trace.Event)
	for e := range w.rec.All() {
		if e.Rank != rank {
			continue
		}
		if le, ok := byLayer[e.Layer]; !ok || e.At >= le.At {
			byLayer[e.Layer] = e
		}
	}
	var out []LayerLast
	for _, e := range byLayer {
		out = append(out, LayerLast{Layer: e.Layer.String(), Kind: e.Kind.String(), At: e.At})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At > out[j].At
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// Stalls returns the recorded stall reports in detection order.
func (w *Watchdog) Stalls() []StallReport {
	return append([]StallReport(nil), w.fired...)
}

// Render formats every recorded stall; empty when none fired.
func (w *Watchdog) Render() string {
	var b strings.Builder
	for _, r := range w.fired {
		b.WriteString(r.Render())
	}
	return b.String()
}
