package obs

import "qsmpi/internal/trace"

// IndexMapped reports how many correlator groups the index of events
// names, and how many of them it resolves through its map rather than its
// per-rank slices.
func IndexMapped(events []trace.Event) (groups, mapped int) {
	ix := newIndex(events)
	return len(ix.corrs), len(ix.group.other)
}
