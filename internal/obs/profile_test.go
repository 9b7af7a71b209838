// Profiler tests: the telescoping invariant (phase durations sum exactly
// to end-to-end latency on every protocol path), path classification,
// flow accounting, critical-path ordering and rendering determinism.
package obs_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"qsmpi/internal/cluster"
	"qsmpi/internal/experiments"
	"qsmpi/internal/mpichq"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// checkTelescope asserts the profiler's core invariant for every message:
// the phase durations sum to exactly End-Start, with no rounding slack —
// both are integer virtual-time ticks.
func checkTelescope(t *testing.T, p obs.Profile) {
	t.Helper()
	if len(p.Messages) == 0 {
		t.Fatal("no correlated messages reconstructed")
	}
	for _, m := range p.Messages {
		var sum simtime.Duration
		for _, ph := range m.Phases {
			if ph.Dur < 0 {
				t.Errorf("corr %#x: negative phase %s = %v", m.Corr, ph.Name, ph.Dur)
			}
			sum += ph.Dur
		}
		if sum != m.Latency() {
			t.Errorf("corr %#x (%s): phases sum to %v, latency is %v",
				m.Corr, m.Path, sum, m.Latency())
		}
		if m.End < m.Start {
			t.Errorf("corr %#x: End %v before Start %v", m.Corr, m.End, m.Start)
		}
	}
}

func TestPhaseSumsEqualLatencyAcrossPaths(t *testing.T) {
	cases := []struct {
		scheme ptlelan4.Scheme
		size   int
		path   string
	}{
		{ptlelan4.RDMARead, 256, "eager"},
		{ptlelan4.RDMAWrite, 256, "eager"},
		{ptlelan4.RDMARead, 4096, "rdma-read"},
		{ptlelan4.RDMARead, 65536, "rdma-read"},
		{ptlelan4.RDMAWrite, 4096, "rdma-write"},
		{ptlelan4.RDMAWrite, 65536, "rdma-write"},
	}
	for _, c := range cases {
		p := obs.Analyze(exchange(t, c.scheme, c.size).Events())
		checkTelescope(t, p)
		for _, m := range p.Messages {
			if m.Path != c.path {
				t.Errorf("scheme %v size %d: path %q, want %q", c.scheme, c.size, m.Path, c.path)
			}
			if m.Src != 0 || m.Dst != 1 {
				t.Errorf("scheme %v size %d: flow %d->%d, want 0->1", c.scheme, c.size, m.Src, m.Dst)
			}
			if m.Bytes != c.size {
				t.Errorf("scheme %v size %d: bytes %d", c.scheme, c.size, m.Bytes)
			}
		}
		if len(p.Paths) != 1 || p.Paths[0].Path != c.path {
			t.Errorf("scheme %v size %d: paths %+v", c.scheme, c.size, p.Paths)
		}
		if len(p.Flows) != 1 || p.Flows[0].Src != 0 || p.Flows[0].Dst != 1 {
			t.Errorf("scheme %v size %d: flows %+v", c.scheme, c.size, p.Flows)
		}
	}
}

// TestRendezvousPhaseSequence pins the phase names of the two rendezvous
// paths — the decomposition the paper's Fig. 9 per-layer cost analysis
// maps onto.
func TestRendezvousPhaseSequence(t *testing.T) {
	names := func(m obs.Message) []string {
		var out []string
		for _, ph := range m.Phases {
			out = append(out, ph.Name)
		}
		return out
	}
	check := func(scheme ptlelan4.Scheme, want []string) {
		t.Helper()
		p := obs.Analyze(exchange(t, scheme, 4096).Events())
		if len(p.Messages) != 1 {
			t.Fatalf("scheme %v: %d messages", scheme, len(p.Messages))
		}
		got := names(p.Messages[0])
		if len(got) != len(want) {
			t.Fatalf("scheme %v: phases %v, want %v", scheme, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scheme %v: phases %v, want %v", scheme, got, want)
			}
		}
	}
	check(ptlelan4.RDMARead, []string{
		"sched", "dma-queue", "wire", "drain", "match",
		"handshake", "dma-queue", "body-dma", "fin-lag"})
	check(ptlelan4.RDMAWrite, []string{
		"sched", "dma-queue", "wire", "drain", "match",
		"handshake", "sched", "dma-queue", "body-dma", "fin-lag"})
}

// TestTportPathDecomposition covers the NIC-resident tag-matching
// transport: same telescoping invariant, "tport" classification.
func TestTportPathDecomposition(t *testing.T) {
	for _, size := range []int{64, 100000} {
		rec := trace.NewRecorder(0)
		j := mpichq.NewJob(2)
		j.SetTracer(rec)
		j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
			buf := make([]byte, size)
			if rank == 0 {
				c.Send(th, 1, 7, buf)
				c.Recv(th, 1, 8, buf)
			} else {
				c.Recv(th, 0, 7, buf)
				c.Send(th, 0, 8, buf)
			}
		})
		if err := j.Run(); err != nil {
			t.Fatal(err)
		}
		p := obs.Analyze(rec.Events())
		checkTelescope(t, p)
		if len(p.Messages) != 2 {
			t.Fatalf("size %d: %d messages, want 2", size, len(p.Messages))
		}
		for _, m := range p.Messages {
			if m.Path != "tport" {
				t.Errorf("size %d: path %q, want tport", size, m.Path)
			}
			if m.Bytes != size {
				t.Errorf("size %d: bytes %d", size, m.Bytes)
			}
		}
		if p.Messages[0].Src != 0 || p.Messages[0].Dst != 1 ||
			p.Messages[1].Src != 1 || p.Messages[1].Dst != 0 {
			t.Errorf("size %d: flow order %+v", size, p.Messages)
		}
	}
}

// TestCriticalPathIsChronologicalDependencyChain runs a multi-iteration
// ping-pong and checks the walk: hops in time order, each finishing at or
// before the next starts, sharing an endpoint rank, ending at the run's
// latest-ending message.
func TestCriticalPathIsChronologicalDependencyChain(t *testing.T) {
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	ob := experiments.ObservedPingPong(clusterSpec(o), 4096, 4, 0, 0)
	p := obs.Analyze(ob.Recorder.Events())
	checkTelescope(t, p)
	if len(p.Critical) < 2 {
		t.Fatalf("critical path has %d hops, want a chain", len(p.Critical))
	}
	for i := 1; i < len(p.Critical); i++ {
		prev, cur := p.Critical[i-1], p.Critical[i]
		if prev.End > cur.Start {
			t.Errorf("hop %d: ends %v after hop %d starts %v", i-1, prev.End, i, cur.Start)
		}
		if prev.Src != cur.Src && prev.Src != cur.Dst && prev.Dst != cur.Src && prev.Dst != cur.Dst {
			t.Errorf("hop %d (%d->%d) shares no rank with hop %d (%d->%d)",
				i-1, prev.Src, prev.Dst, i, cur.Src, cur.Dst)
		}
	}
	last := p.Critical[len(p.Critical)-1]
	for _, m := range p.Messages {
		if m.End > last.End {
			t.Errorf("critical path ends at %v but message %#x ends later at %v",
				last.End, m.Corr, m.End)
		}
	}
}

// TestProfileRenderingDeterministic: two identical runs must render
// byte-identical tables — the property that lets breakdown output be
// golden-tested and diffed across commits.
func TestProfileRenderingDeterministic(t *testing.T) {
	render := func() (string, string, string) {
		p := obs.Analyze(exchange(t, ptlelan4.RDMAWrite, 65536).Events())
		return p.RenderBreakdown(), p.RenderFlows(), p.RenderCritical()
	}
	b1, f1, c1 := render()
	b2, f2, c2 := render()
	if b1 != b2 || f1 != f2 || c1 != c2 {
		t.Fatalf("rendered profile differs across identical runs:\n--- breakdown A\n%s--- breakdown B\n%s", b1, b2)
	}
	if b1 == "" || f1 == "" || c1 == "" {
		t.Fatal("empty rendering")
	}
}

// TestAnalyzeIgnoresUncorrelatedEvents: raw fabric/NIC traffic without a
// correlator must not fabricate messages.
func TestAnalyzeIgnoresUncorrelatedEvents(t *testing.T) {
	p := obs.Analyze([]trace.Event{
		{At: simtime.Time(simtime.Micros(1)), Rank: 0, Layer: trace.LayerFabric, Kind: trace.PktSent},
		{At: simtime.Time(simtime.Micros(2)), Rank: 1, Layer: trace.LayerFabric, Kind: trace.PktDelivered},
	})
	if len(p.Messages) != 0 || len(p.Critical) != 0 {
		t.Fatalf("uncorrelated events produced %+v", p.Messages)
	}
	if got := p.RenderCritical(); got != "critical path: no correlated messages\n" {
		t.Fatalf("empty critical render = %q", got)
	}
}

// clusterSpec builds the standard 2-rank polling spec used by the
// experiment helpers.
func clusterSpec(o ptlelan4.Options) cluster.Spec {
	return cluster.Spec{Elan: &o, Progress: pml.Polling}
}

// renderAll is everything the two analyzers print for a stream.
func renderAll(events []trace.Event) string {
	p := obs.Analyze(events)
	return p.RenderBreakdown() + p.RenderFlows() + p.RenderCritical() + obs.AnalyzeWaits(events).Render()
}

// TestAnalyzersSortWhatIsNotInOrder: the analyzers read a time-ordered
// stream in place and sort a copy of any other. A stably shuffled stream —
// its same-instant runs kept whole and in order, the runs themselves in
// random order — must therefore render exactly as the ordered one, and
// must come back untouched.
func TestAnalyzersSortWhatIsNotInOrder(t *testing.T) {
	streams := map[string][]trace.Event{}
	_, rec := experiments.SampledRun(8, 6, 1, 0)
	streams["sampled-8"] = rec.Events()
	for _, sc := range experiments.WaitScenarios(1) {
		streams[sc.Name] = sc.Events
	}
	for name, events := range streams {
		var runs [][]trace.Event
		for i := 0; i < len(events); {
			j := i
			for j < len(events) && events[j].At == events[i].At {
				j++
			}
			runs = append(runs, events[i:j])
			i = j
		}
		rng := rand.New(rand.NewSource(18))
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		var shuffled []trace.Event
		for _, run := range runs {
			shuffled = append(shuffled, run...)
		}
		if len(runs) < 10 || slices.Equal(shuffled, events) {
			t.Fatalf("%s: shuffle of %d runs left the stream in order", name, len(runs))
		}
		input := slices.Clone(shuffled)
		if got, want := renderAll(shuffled), renderAll(events); got != want {
			t.Errorf("%s: analyzers render a shuffled stream differently from the ordered one:\n--- shuffled\n%s--- ordered\n%s", name, got, want)
		}
		if !slices.Equal(shuffled, input) {
			t.Errorf("%s: analyzers wrote to their input", name)
		}
	}
}

// TestAnalyzersCopyNoOrderedStream is the analyzers' allocation gate: on a
// stream already in time order neither allocates anything the size of the
// stream — no clone to sort, no per-message slices of events — so each
// stays under half of the stream's own bytes, index and results included.
func TestAnalyzersCopyNoOrderedStream(t *testing.T) {
	_, rec := experiments.SampledRun(8, 100, 1, 0)
	events := rec.Events()
	if len(events) < 100_000 {
		t.Fatalf("stream of %d events is too short to tell a copy from the index", len(events))
	}
	half := uint64(len(events)) * uint64(unsafe.Sizeof(trace.Event{})) / 2
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if n := allocated(func() { obs.Analyze(events) }); n > half {
		t.Errorf("Analyze allocated %d bytes on an ordered stream of %d events; a copy is %d", n, len(events), 2*half)
	}
	if n := allocated(func() { obs.AnalyzeWaits(events) }); n > half {
		t.Errorf("AnalyzeWaits allocated %d bytes on an ordered stream of %d events; a copy is %d", n, len(events), 2*half)
	}
}
