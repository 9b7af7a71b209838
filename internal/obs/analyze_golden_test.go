package obs_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
	"qsmpi/internal/trace"
)

// testdata/analyze_golden.txt was printed by a throwaway test from the
// analyzers and the sampler as they stood before the wait analyzer took
// its instants from the profiler's walk and the sampler's rank and link
// series became one type. Never regenerate it: a change that means to
// move a byte of an analyzer table edits the cells it moves and says
// which.
//
// Each "@@ <stream>" cell holds the stream's breakdown, flows, critical
// path and wait-state report; the sampled run's cell adds its four
// heatmaps, an FNV of its event stream in record order (which pins the
// sampler's GaugeSample emission order) and an FNV of its Perfetto file.

// analyzeCell is one stream of the golden.
type analyzeCell struct {
	name   string
	events []trace.Event
	smp    *obs.Sampler // the sampled run's sampler, else nil
}

func (c analyzeCell) String() string { return "@@ " + c.name }

func analyzeCells() []analyzeCell {
	var cells []analyzeCell
	for _, sc := range experiments.WaitScenarios(1) {
		cells = append(cells, analyzeCell{name: sc.Name, events: sc.Events})
	}
	smp, rec := experiments.SampledRun(8, 6, 1, 0)
	return append(cells,
		analyzeCell{name: "sampled-8", events: rec.Events(), smp: smp},
		analyzeCell{name: "long-4000", events: longStream(4000)})
}

func (c analyzeCell) render(t *testing.T) string {
	var b strings.Builder
	p := obs.Analyze(c.events)
	b.WriteString(p.RenderBreakdown())
	b.WriteString(p.RenderFlows())
	b.WriteString(p.RenderCritical())
	b.WriteString(obs.AnalyzeWaits(c.events).Render())
	if c.smp == nil {
		return b.String()
	}
	b.WriteString(c.smp.RankMatrix(obs.GaugeDuty).Heatmap(0))
	b.WriteString(c.smp.RankMatrix(obs.GaugeRecvQDepth).Heatmap(0))
	b.WriteString(c.smp.RankMatrix(obs.GaugePendingSends).Heatmap(0))
	b.WriteString(c.smp.LinkMatrix(obs.LinkGaugeBytes).Deltas().Heatmap(0))
	h := fnv.New64a()
	var word [8]byte
	for _, e := range c.events {
		for _, v := range []uint64{uint64(e.At), uint64(e.Rank), uint64(e.Layer), uint64(e.Kind),
			e.ReqID, uint64(e.Peer), uint64(e.Tag), uint64(e.Bytes), e.Corr} {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	fmt.Fprintf(&b, "events %016x/%d\n", h.Sum64(), len(c.events))
	h.Reset()
	if err := obs.WritePerfetto(h, c.events); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "perfetto %016x\n", h.Sum64())
	return b.String()
}

// TestAnalyzeGolden holds every analyzer table, the sampled run's heatmaps,
// its record order and its Perfetto bytes to the golden.
func TestAnalyzeGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/analyze_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	// A heatmap row can hold "@@ ", so a cell starts only at a line's start.
	golden := make(map[string]string)
	for _, cell := range strings.Split("\n"+strings.TrimSuffix(string(raw), "\n"), "\n@@ ")[1:] {
		head, body, _ := strings.Cut(cell, "\n")
		golden["@@ "+head] = body + "\n"
	}
	cells := analyzeCells()
	if len(golden) != len(cells) {
		t.Fatalf("golden holds %d cells, the table %d", len(golden), len(cells))
	}
	for _, c := range cells {
		want, ok := golden[c.String()]
		if !ok {
			t.Errorf("%v: not in the golden", c)
			continue
		}
		if got := c.render(t); got != want {
			t.Errorf("%v:\n got: %s\nwant: %s", c,
				strings.ReplaceAll(got, "\n", "\n      "), strings.ReplaceAll(want, "\n", "\n      "))
		}
	}
}
