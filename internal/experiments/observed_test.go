package experiments

import (
	"strings"
	"testing"

	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
)

// breakdownFingerprint renders the profile tables of every figure run the
// profiler decomposes into one string for byte-exact comparison.
func breakdownFingerprint() string {
	var sb strings.Builder
	for _, fr := range FigureRuns() {
		if fr.MetricsOnly {
			continue
		}
		prof := obs.Analyze(fr.Recorder.Events())
		sb.WriteString("## " + fr.ID + " — " + fr.Note + "\n")
		sb.WriteString(prof.RenderBreakdown())
		sb.WriteString(prof.RenderFlows())
		sb.WriteString(prof.RenderCritical())
	}
	return sb.String()
}

// TestFigureRunsDeterministic pins the property the report tool
// advertises: the phase-decomposition tables are byte-identical across
// runs. The reruns are sequential and read no Config, so -j cannot reach
// them.
func TestFigureRunsDeterministic(t *testing.T) {
	first := breakdownFingerprint()
	if again := breakdownFingerprint(); again != first {
		t.Errorf("breakdown diverged across runs:\nfirst:\n%s\nsecond:\n%s", first, again)
	}
}

// TestFigureRunsCoverEveryFigure checks each representative point the
// profiler decomposes reconstructed at least one message whose phases
// telescope exactly, and that the expected protocol paths appear (eager
// for 256 B, rendezvous for 4 KiB, tport for the MPICH baseline).
func TestFigureRunsCoverEveryFigure(t *testing.T) {
	runs := FigureRuns()
	if len(runs) != 8 || !runs[7].MetricsOnly {
		t.Fatalf("%d runs, want 8 ending in the metrics-only overlap run", len(runs))
	}
	paths := map[string]bool{}
	for _, fr := range runs[:7] {
		prof := obs.Analyze(fr.Recorder.Events())
		if len(prof.Messages) == 0 {
			t.Errorf("%s (%s): no messages reconstructed", fr.ID, fr.Note)
			continue
		}
		for _, m := range prof.Messages {
			paths[m.Path] = true
			var sum simtime.Duration
			for _, ph := range m.Phases {
				sum += ph.Dur
			}
			if sum != m.Latency() {
				t.Errorf("%s (%s): corr %#x phases sum to %v, latency %v",
					fr.ID, fr.Note, m.Corr, sum, m.Latency())
			}
		}
		if len(prof.Critical) == 0 {
			t.Errorf("%s (%s): empty critical path", fr.ID, fr.Note)
		}
	}
	for _, want := range []string{"eager", "rdma-read", "rdma-write", "tport"} {
		if !paths[want] {
			t.Errorf("no figure exercised the %q path (saw %v)", want, paths)
		}
	}
}
