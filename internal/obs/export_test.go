package obs

import "qsmpi/internal/trace"

// IndexMapped reports how many correlator groups the index of events
// names, and how many of them it resolves through its maps rather than its
// per-rank slices.
func IndexMapped(events []trace.Event) (groups, mapped int) {
	ix := newIndex(events)
	t := &ix.group.ranks
	for _, s := range t.dense {
		if s != nil {
			mapped += len(s.other)
		}
	}
	for _, s := range t.sparse {
		mapped += len(s.other)
	}
	return len(ix.corrs), mapped
}
