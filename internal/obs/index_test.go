package obs_test

import (
	"testing"

	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
	"qsmpi/internal/trace"
)

// farReq is a request-id bit no point-to-point correlator reaches:
// setting it keeps a correlator's source rank and its order among the
// others, and puts it out of the index's per-rank slices, into its map.
const farReq = 1 << 39

// remapFar returns events with every correlator, and the request ids the
// wait analyzer joins receive posts through, moved by farReq.
func remapFar(events []trace.Event) []trace.Event {
	out := make([]trace.Event, len(events))
	for i, e := range events {
		if e.Corr != 0 {
			e.Corr |= farReq
		}
		if e.Kind == trace.RecvPosted || e.Kind == trace.Matched {
			e.ReqID |= farReq
		}
		out[i] = e
	}
	return out
}

// TestIndexTableMatchesMap pins the index's two lookups to each other: a
// stream whose correlators all resolve through the per-rank slices renders
// the same breakdown, flows and wait states as the same stream with every
// correlator moved out of their range, which the map resolves. Only
// message events are grouped, so a simulation's stream sends no group
// through the map; longStream, whose ranks take every 16th request id,
// outgrows the slices' budget near its end and sends a few.
func TestIndexTableMatchesMap(t *testing.T) {
	render := func(events []trace.Event) string {
		p := obs.Analyze(events)
		return p.RenderBreakdown() + p.RenderFlows() + obs.AnalyzeWaits(events).Render()
	}
	_, rec := experiments.SampledRun(8, 6, 1, 0)
	scenarios := append(experiments.WaitScenarios(1),
		experiments.WaitScenario{Name: "sampled-8", Events: rec.Events()},
		experiments.WaitScenario{Name: "long", Events: longStream(4000)})
	for _, sc := range scenarios {
		g, m := obs.IndexMapped(sc.Events)
		if m != 0 && sc.Name != "long" {
			t.Errorf("%s: %d of %d groups go through the map; want none", sc.Name, m, g)
		}
		far := remapFar(sc.Events)
		if fg, fm := obs.IndexMapped(far); fg != g || fm != g {
			t.Fatalf("%s: remapped, %d of %d groups go through the map; want all %d", sc.Name, fm, fg, g)
		}
		if got, want := render(far), render(sc.Events); got != want {
			t.Errorf("%s: the map's rendering differs from the slices':\n%s\nwant\n%s", sc.Name, got, want)
		}
	}
}
