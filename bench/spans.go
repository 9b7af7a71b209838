package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of the benchmark's own work: a workload, a
// repetition, a cluster stage, a post-processing stage, a figure, a probe.
// parent is the index of the span it ran inside, -1 at the top.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration // since the log was created
}

// spanLog keeps spans in memory; a traced run writes them out at the end.
// Only the benchmark's main goroutine records, so there is no locking.
type spanLog struct {
	t0    time.Time
	spans []span
	stack []int // the open spans, innermost last
}

func newSpanLog() *spanLog { return &spanLog{t0: now()} }

func (l *spanLog) parent() int {
	if len(l.stack) == 0 {
		return -1
	}
	return l.stack[len(l.stack)-1]
}

// open starts a span inside the innermost open one.
func (l *spanLog) open(name string) int {
	l.spans = append(l.spans, span{Name: name, Parent: l.parent(), Start: now().Sub(l.t0)})
	l.stack = append(l.stack, len(l.spans)-1)
	return len(l.spans) - 1
}

// close ends a span and every span opened inside it.
func (l *spanLog) close(id int) {
	end := now().Sub(l.t0)
	for len(l.stack) > 0 {
		top := l.stack[len(l.stack)-1]
		l.stack = l.stack[:len(l.stack)-1]
		l.spans[top].End = end
		if top == id {
			return
		}
	}
}

// add records a finished span whose ends were read elsewhere (inside the
// simulation, by rank 0).
func (l *spanLog) add(name string, start, end time.Time) {
	l.spans = append(l.spans, span{Name: name, Parent: l.parent(), Start: start.Sub(l.t0), End: end.Sub(l.t0)})
}

// adopt files a repetition process's spans under the span that covered the
// process; offset is when the process started on this log's clock.
func (l *spanLog) adopt(under int, offset time.Duration, child []span) {
	base := len(l.spans)
	for _, s := range child {
		s.Start, s.End = s.Start+offset, s.End+offset
		if s.Parent < 0 {
			s.Parent = under
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// write emits the log as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing). Every span is a complete event; args.parent_id is the
// id of the span that caused it, so a span's self time is its duration
// minus its children's, with no need to nest by time.
func (l *spanLog) write(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]ev, len(l.spans))
	for i, s := range l.spans {
		events[i] = ev{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"id": i, "parent_id": s.Parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
