// Package obs is the unified observability subsystem: a metrics registry
// (counters, gauges and fixed-bucket latency histograms keyed by
// layer/name/rank) that every layer of the stack reports into, and a
// Chrome trace-event exporter (perfetto.go) for the cross-layer event
// stream recorded by internal/trace.
//
// The registry is pull-based: layers keep their existing cheap counters
// and a Collector closure snapshots them on demand, so the hot paths pay
// nothing when nobody is looking. Histograms are the one push-based
// surface — an Observe is a couple of integer increments — and layers
// hold nil histogram pointers unless a registry was attached, so the
// disabled cost is a single nil check. Both rules together are what keeps
// figure output byte-identical with observability compiled in.
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"qsmpi/internal/simtime"
)

// Sample is one observed metric value. Rank is the owning process's rank,
// or -1 for cluster-global metrics.
type Sample struct {
	Layer string
	Name  string
	Rank  int
	Value float64
}

// compareSamples orders samples by (layer, name, rank); rank -1
// (cluster-global) sorts before every real rank.
func compareSamples(a, b Sample) int {
	return cmp.Or(strings.Compare(a.Layer, b.Layer), strings.Compare(a.Name, b.Name), cmp.Compare(a.Rank, b.Rank))
}

// EmitFn receives samples from a Collector.
type EmitFn func(layer, name string, rank int, value float64)

// Collector snapshots one component's counters into samples. Collectors
// run only inside Registry.Snapshot, never on a communication path.
type Collector func(emit EmitFn)

// Registry is the metric surface of one simulation: a set of collectors
// (pull) plus the histograms handed out to layers (push).
type Registry struct {
	collectors []Collector
	hists      []*Histogram
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Collect registers a collector.
func (r *Registry) Collect(c Collector) { r.collectors = append(r.collectors, c) }

// Snapshot runs every collector and folds in the histograms, returning
// the samples sorted by (layer, name, rank). Duplicate keys are summed,
// so per-rail components may emit under one rank.
type Snapshot struct {
	Samples []Sample
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	// A sample with a zero value is its key.
	acc := make(map[Sample]float64)
	var keys []Sample
	emit := func(layer, name string, rank int, value float64) {
		k := Sample{Layer: layer, Name: name, Rank: rank}
		if v, ok := acc[k]; ok {
			acc[k] = v + value
			return
		}
		acc[k] = value
		keys = append(keys, k)
	}
	for _, c := range r.collectors {
		c(emit)
	}
	for _, h := range r.hists {
		h.emit(emit)
	}
	slices.SortFunc(keys, compareSamples)
	for i, k := range keys {
		keys[i].Value = acc[k]
	}
	return Snapshot{Samples: keys}
}

// Get returns the value of one metric, or 0 if absent. Samples are sorted
// by (layer, name, rank), so this is a binary search.
func (s Snapshot) Get(layer, name string, rank int) float64 {
	i, ok := slices.BinarySearchFunc(s.Samples, Sample{Layer: layer, Name: name, Rank: rank}, compareSamples)
	if ok {
		return s.Samples[i].Value
	}
	return 0
}

// Total sums a metric across ranks.
func (s Snapshot) Total(layer, name string) float64 {
	var v float64
	for _, x := range s.Samples {
		if x.Layer == layer && x.Name == name {
			v += x.Value
		}
	}
	return v
}

// Render formats the snapshot as an aligned table grouped by layer.
func (s Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-28s %5s %14s\n", "layer", "metric", "rank", "value")
	for _, x := range s.Samples {
		rank := fmt.Sprintf("%d", x.Rank)
		if x.Rank < 0 {
			rank = "-"
		}
		if x.Value == float64(int64(x.Value)) {
			fmt.Fprintf(&b, "%-8s %-28s %5s %14d\n", x.Layer, x.Name, rank, int64(x.Value))
		} else {
			fmt.Fprintf(&b, "%-8s %-28s %5s %14.3f\n", x.Layer, x.Name, rank, x.Value)
		}
	}
	return b.String()
}

// ---- histograms ----

// histBuckets are the fixed latency bucket upper bounds in microseconds
// (powers of two from 1us to 64ms, plus overflow). Fixed bounds keep
// snapshots comparable across runs and layers.
var histBuckets = [17]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536}

// Histogram is a fixed-bucket latency histogram. Observe is cheap enough
// for completion paths: a comparison loop over 17 bounds and three adds.
type Histogram struct {
	layer, name string
	rank        int
	counts      [len(histBuckets) + 1]int64
	n           int64
	sumUS       float64
}

// Histogram creates (and registers) a histogram keyed layer/name/rank.
func (r *Registry) Histogram(layer, name string, rank int) *Histogram {
	h := &Histogram{layer: layer, name: name, rank: rank}
	r.hists = append(r.hists, h)
	return h
}

// Observe records one latency.
func (h *Histogram) Observe(d simtime.Duration) {
	us := d.Micros()
	i := 0
	for i < len(histBuckets) && us > histBuckets[i] {
		i++
	}
	h.counts[i]++
	h.n++
	h.sumUS += us
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the mean observed latency in microseconds.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sumUS / float64(h.n)
}

// emit folds the histogram into a snapshot: count, mean, and one sample
// per non-empty bucket (named le_<bound>us / le_inf).
func (h *Histogram) emit(emit EmitFn) {
	if h.n == 0 {
		return
	}
	emit(h.layer, h.name+".count", h.rank, float64(h.n))
	emit(h.layer, h.name+".mean_us", h.rank, h.Mean())
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		var bn string
		if i < len(histBuckets) {
			bn = fmt.Sprintf("%s.le_%gus", h.name, histBuckets[i])
		} else {
			bn = h.name + ".le_inf"
		}
		emit(h.layer, bn, h.rank, float64(c))
	}
}
