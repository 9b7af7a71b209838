// Virtual-time progress watchdog: flags any rank whose request queues are
// non-empty but whose event stream has advanced no virtual time for a
// configurable window — the observable symptom of the completion-queue
// race of §5.3 and of every lost-wakeup bug in a progress engine. Each PML
// progress notification stamps the rank's last-advance time; a periodic
// cancel-on-idle tick reports every busy rank silent for a full window,
// and a run that stops with ranks still busy reports them at quiescence.
//
// The watchdog reads simulation state but never adds virtual-time cost to
// any simulated entity and never keeps a finished run alive, so attaching
// it cannot change a run's latencies or its end — only the event count.
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// DefaultStallWindow is the stall threshold used when a Watchdog is built
// with window 0. The largest legitimate event-stream gap in the modelled
// configurations is ~1.1ms (one maximum-size RDMA crossing the wire), so
// ten milliseconds of virtual silence is unambiguous.
const DefaultStallWindow = 10 * simtime.Millisecond

// StallDiag is the structured state dump of one stalled rank. A rank is
// busy while it has a send or a receive pending.
type StallDiag struct {
	PendingSends    int
	PendingRecvs    int
	UnexpectedDepth int
	OutstandingDMA  int
	// LastEvents is the rank's final trace event per layer at or before
	// the detection, newest first, read by Stalls and Render from the
	// finished stream when a recorder was attached; nil otherwise.
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

// Watchdog monitors per-rank progress in virtual time: hand one to
// cluster.Spec.Watchdog and read Stalls after the run. A note writes only
// its rank's slot, from the rank's shard; checks run on the coordinator.
type Watchdog struct {
	window simtime.Duration
	rec    *trace.Recorder
	ranks  []watched // by rank: zero until the rank registers
	fired  []StallReport
}

// watched is what the watchdog knows of one rank.
type watched struct {
	diag     func() StallDiag
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

// Bind attaches the watchdog to the kernel and, optionally, to the run's
// recorder for the diagnostics' last events. The tick takes the sampler's
// phase: first at window + 1 ps, then every window.
func (w *Watchdog) Bind(k *simtime.Kernel, rec *trace.Recorder) {
	w.rec = rec
	every(k, w.window, "obs:watchdog", func() { w.check(k.Now(), false) })
}

// Register installs the probe of one rank's request machinery, read at
// every check. Re-registering a rank replaces it (process respawn).
func (w *Watchdog) Register(rank int, diag func() StallDiag) {
	if rank >= len(w.ranks) {
		w.ranks = append(w.ranks, make([]watched, rank+1-len(w.ranks))...)
	}
	w.ranks[rank].diag = diag
}

// Note stamps rank's last-progress time, as seen on the caller's clock.
// It is called from the PML's hot paths, so it is one field write.
func (w *Watchdog) Note(rank int, now simtime.Time) {
	if rank < len(w.ranks) {
		w.ranks[rank].last = now
	}
}

// Quiesced reports every busy rank not yet reported: the run stopped at now
// with procs stalled, so nothing can advance them again.
func (w *Watchdog) Quiesced(now simtime.Time) { w.check(now, true) }

// check reports, in rank order and once each, every busy rank silent for
// a full window, or at quiescence (final) every busy rank, dated at the
// earliest instant the window rule holds and never before now.
func (w *Watchdog) check(now simtime.Time, final bool) {
	for rank := range w.ranks {
		r := &w.ranks[rank]
		due := r.last.Add(w.window)
		if r.reported || r.diag == nil || now < due && !final {
			continue
		}
		if d := r.diag(); d.PendingSends+d.PendingRecvs > 0 {
			r.reported = true
			w.fired = append(w.fired, StallReport{Rank: rank, LastProgress: r.last, DetectedAt: max(now, due), Diag: d})
		}
	}
}

// lastEvents scans the attached recorder, in place, for rank's final
// event per layer at or before until, newest first.
func (w *Watchdog) lastEvents(rank int, until simtime.Time) []LayerLast {
	if w.rec == nil {
		return nil
	}
	byLayer := make(map[trace.Layer]trace.Event)
	for e := range w.rec.All() {
		if le, ok := byLayer[e.Layer]; e.Rank == rank && e.At <= until && (!ok || e.At >= le.At) {
			byLayer[e.Layer] = e
		}
	}
	var out []LayerLast
	for _, e := range byLayer {
		out = append(out, LayerLast{Layer: e.Layer.String(), Kind: e.Kind.String(), At: e.At})
	}
	slices.SortFunc(out, func(a, b LayerLast) int { return cmp.Or(cmp.Compare(b.At, a.At), cmp.Compare(a.Layer, b.Layer)) })
	return out
}

// Stalls returns the recorded stall reports in detection order, each with
// its rank's last events read from the recorder: after the run, the whole
// stream, merged from the nodes' recorders under shards.
func (w *Watchdog) Stalls() []StallReport {
	out := slices.Clone(w.fired)
	for i := range out {
		out[i].Diag.LastEvents = w.lastEvents(out[i].Rank, out[i].DetectedAt)
	}
	return out
}

// Render formats every recorded stall as an indented multi-line
// diagnostic; empty when none fired.
func (w *Watchdog) Render() string {
	var b strings.Builder
	for _, r := range w.Stalls() {
		fmt.Fprintf(&b, "watchdog: rank %d stalled: no progress since %.3fus (detected at %.3fus, %.3fus of silence)\n",
			r.Rank, r.LastProgress.Micros(), r.DetectedAt.Micros(), r.DetectedAt.Sub(r.LastProgress).Micros())
		fmt.Fprintf(&b, "  pending: sends=%d recvs=%d unexpected=%d outstanding-dma=%d\n",
			r.Diag.PendingSends, r.Diag.PendingRecvs, r.Diag.UnexpectedDepth, r.Diag.OutstandingDMA)
		for _, le := range r.Diag.LastEvents {
			fmt.Fprintf(&b, "  last %-6s event: %-17s @ %.3fus\n", le.Layer, le.Kind, le.At.Micros())
		}
	}
	return b.String()
}
