// Package rectest holds a replay of a scripted simulation to a recording
// made from code that has since been deleted (a testdata/*_golden.txt that
// must never be regenerated). A recording pins, per scenario, the
// executed-event count, the end time, every completion and error time and
// the time of every executed event; a later event diet may delete listed
// events from it and nothing else (DESIGN §7, "what may be removed under
// (time, seq)"), so the next one edits a list in a test, not a golden.
package rectest

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"qsmpi/internal/simtime"
)

// Trace is what a replay produces and a recording pins. Completed and
// Errors are "<ps>@<who>" strings in the order the scenario's package
// defines; Stream is the timestamp of every executed event, names stripped,
// and is nil on a kernel with worker shards, which takes no tracer.
type Trace struct {
	Steps, End        int64
	Completed, Errors []string
	Stream            []string
}

// Watch records k's executed events into tr.Stream. Call it before the run,
// and only on a kernel without worker shards.
func (tr *Trace) Watch(k *simtime.Kernel) {
	k.SetTracer(func(at simtime.Time, what string) {
		tr.Stream = append(tr.Stream, fmt.Sprint(int64(at)))
	})
}

// Read parses a recording: per scenario a "summary" line (steps=, end=,
// completed= and errors= lists) and any number of other lines — "stream",
// and whatever lists of instants the recording names for a later diet —
// each a space-separated list keyed by the word after the scenario's name.
func Read(t testing.TB, path string) map[string]map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ": ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, kind, _ := strings.Cut(key, " ")
		if golden[name] == nil {
			golden[name] = map[string][]string{}
		}
		if kind != "summary" {
			golden[name][kind] = strings.Fields(val)
			continue
		}
		list := ""
		for _, f := range strings.Fields(val) {
			if k, v, ok := strings.Cut(f, "="); ok {
				list, f = k, v
			}
			if f != "" {
				golden[name][list] = append(golden[name][list], f)
			}
		}
	}
	return golden
}

// Compare requires of a replay every time the recording pins — end,
// completions, errors — and the recording's executed events with exactly
// the instants in gone deleted, in stream order: each must be in the
// recording, and nothing else may be missing, added or moved.
func Compare(t testing.TB, got Trace, rec map[string][]string, gone []string) {
	t.Helper()
	if rec == nil {
		t.Fatal("scenario is not in the recording")
	}
	if want := rec["end"]; len(want) != 1 || fmt.Sprint(got.End) != want[0] {
		t.Errorf("end=%d, recorded %v", got.End, want)
	}
	if !slices.Equal(got.Completed, rec["completed"]) {
		t.Errorf("completions diverge from the recording:\n got %v\nwant %v", got.Completed, rec["completed"])
	}
	if !slices.Equal(got.Errors, rec["errors"]) {
		t.Errorf("errors diverge from the recording:\n got %v\nwant %v", got.Errors, rec["errors"])
	}
	if want := rec["steps"]; len(want) != 1 || fmt.Sprint(got.Steps+int64(len(gone))) != want[0] {
		t.Errorf("steps=%d, want the recorded %v less the %d deleted events", got.Steps, want, len(gone))
	}
	if got.Stream == nil {
		return // worker shards: no kernel tracer
	}
	var want []string
	left := gone
	for _, at := range rec["stream"] {
		if len(left) > 0 && at == left[0] {
			left = left[1:]
			continue
		}
		want = append(want, at)
	}
	if len(left) > 0 {
		t.Fatalf("instant %s is to be deleted but the recording has no event left there", left[0])
	}
	if !slices.Equal(got.Stream, want) {
		i := 0
		for i < len(got.Stream) && i < len(want) && got.Stream[i] == want[i] {
			i++
		}
		t.Errorf("event stream is not the recording less %v: first difference at event %d\n got %v\nwant %v",
			gone, i, got.Stream[i:], want[i:])
	}
}
