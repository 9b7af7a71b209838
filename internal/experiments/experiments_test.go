package experiments

import (
	"fmt"
	"strings"
	"testing"

	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// These tests turn the paper's qualitative claims — the ones EXPERIMENTS.md
// reports — into regression checks, on reduced sweeps so the suite stays
// fast.

// testCfg is the reduced-sweep config the claim tests share.
func testCfg() Config {
	return DefaultConfig().WithIters(30)
}

func TestFig7Claims(t *testing.T) {
	r := Fig7(testCfg(), []int{4, 4096}, "test")
	read := byName(r, "RDMA-Read")
	readNI := byName(r, "Read-NoInline")
	readDTP := byName(r, "Read-DTP")
	write := byName(r, "RDMA-Write")
	writeNI := byName(r, "Write-NoInline")

	// Claim 1: DTP costs ≈0.4us over memcpy at small sizes.
	gap := at(readDTP, 4) - at(read, 4)
	if gap < 0.3 || gap > 0.6 {
		t.Errorf("DTP overhead %.3fus, want ≈0.4", gap)
	}
	// Claim 2: read beats write for rendezvous messages.
	if at(read, 4096) >= at(write, 4096) {
		t.Errorf("read (%.2f) not better than write (%.2f) at 4KB", at(read, 4096), at(write, 4096))
	}
	// Claim 3: no-inline improves rendezvous for both schemes.
	if at(readNI, 4096) >= at(read, 4096) {
		t.Error("no-inline did not improve RDMA read")
	}
	if at(writeNI, 4096) >= at(write, 4096) {
		t.Error("no-inline did not improve RDMA write")
	}
	// Eager-range sanity: schemes identical below the threshold.
	if at(read, 4) != at(write, 4) {
		t.Errorf("eager path differs between schemes: %.3f vs %.3f", at(read, 4), at(write, 4))
	}
}

func TestFig8Claims(t *testing.T) {
	r := Fig8(testCfg(), []int{4, 4096, 16384})
	chained := byName(r, "RDMA-Read")
	noChain := byName(r, "Read-NoChain")
	oneQ := byName(r, "One-Queue")
	twoQ := byName(r, "Two-Queue")

	// Chaining helps (marginally) for long messages, is neutral for eager.
	if d := at(noChain, 16384) - at(chained, 16384); d <= 0 || d > 2 {
		t.Errorf("chain benefit %.3fus at 16KB, want small positive", d)
	}
	if at(noChain, 4) != at(chained, 4) {
		t.Error("chaining changed the eager path")
	}
	// The shared CQ costs more than per-descriptor events.
	if at(oneQ, 4096) <= at(chained, 4096) {
		t.Error("one-queue CQ did not cost more")
	}
	// One-queue ≈ two-queue under polling.
	if d := at(twoQ, 4096) - at(oneQ, 4096); d < 0 || d > 0.5 {
		t.Errorf("one vs two queue gap %.3fus, want ≈0.1", d)
	}
}

func TestFig9Claims(t *testing.T) {
	r := Fig9(testCfg(), []int{0, 64, 1024})
	qdma := byName(r, "QDMA latency")
	ptlL := byName(r, "PTL Latency")
	pmlC := byName(r, "PML Layer Cost")

	// PML cost ≈ 0.5us at small sizes.
	if c := at(pmlC, 0); c < 0.3 || c > 0.8 {
		t.Errorf("PML cost %.3fus at 0B, want ≈0.5", c)
	}
	// PTL latency comparable to native QDMA of N+64 bytes: PTL(0B) within
	// 0.5us of QDMA(64B).
	if d := at(ptlL, 0) - at(qdma, 64); d < -0.2 || d > 0.5 {
		t.Errorf("PTL(0) - QDMA(64) = %.3fus, want small", d)
	}
	// All curves increase with size.
	for _, s := range r.Series {
		if s.Points[len(s.Points)-1].Value <= s.Points[0].Value {
			t.Errorf("series %s not increasing", s.Name)
		}
	}
}

func TestTable1Claims(t *testing.T) {
	r := Table1(testCfg())
	basic := byName(r, "Basic")
	intr := byName(r, "Interrupt")
	one := byName(r, "One Thread")
	two := byName(r, "Two Threads")
	for _, size := range []int{4, 4096} {
		b, i, o, w := at(basic, size), at(intr, size), at(one, size), at(two, size)
		if !(b < i && i < o && o < w) {
			t.Errorf("%dB ordering violated: %.2f %.2f %.2f %.2f", size, b, i, o, w)
		}
	}
	// Interrupt adds ≈10us at 4B (paper: "about 10us due to the interrupt").
	if gap := at(intr, 4) - at(basic, 4); gap < 8 || gap > 14 {
		t.Errorf("interrupt cost %.2fus at 4B, want ≈10-11", gap)
	}
}

func TestFig10Claims(t *testing.T) {
	lat := Fig10(testCfg(), []int{0, 1024, 8192}, "test", false)
	mpich := byName(lat, "MPICH-QsNetII")
	read := byName(lat, "PTL/Elan4-RDMA-Read")
	write := byName(lat, "PTL/Elan4-RDMA-Write")

	// MPICH-QsNetII wins small-message latency (header + NIC matching).
	if at(mpich, 0) >= at(read, 0) {
		t.Errorf("MPICH (%.2f) should beat Open MPI (%.2f) at 0B", at(mpich, 0), at(read, 0))
	}
	// But the gap is bounded: "slightly lower but comparable".
	if gap := at(read, 0) - at(mpich, 0); gap > 2.0 {
		t.Errorf("small-message gap %.2fus too large to be 'comparable'", gap)
	}
	if at(read, 8192) >= at(write, 8192) {
		t.Error("read should beat write in the rendezvous range")
	}

	bw := Fig10(testCfg(), []int{8192, 1048576}, "test", true)
	mpichBW := byName(bw, "MPICH-QsNetII")
	readBW := byName(bw, "PTL/Elan4-RDMA-Read")
	// Mid-range: Tport's NIC-side pipelined rendezvous wins.
	if at(mpichBW, 8192) <= at(readBW, 8192) {
		t.Error("MPICH should win mid-range bandwidth")
	}
	// Asymptote: within 2% of each other at 1MB.
	ratio := at(readBW, 1048576) / at(mpichBW, 1048576)
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("1MB bandwidth ratio %.3f, want ≈1", ratio)
	}
}

func TestRenderFormatting(t *testing.T) {
	r := &Result{
		ID: "x", Title: "T", XLabel: "bytes", YLabel: "us",
		Series: []Series{
			{Name: "a", Points: []Point{{0, 1.5}, {8, 2.5}}},
			{Name: "b", Points: []Point{{0, 3.5}, {8, 4.5}}},
		},
	}
	out := r.Render()
	for _, want := range []string{"== x: T ==", "bytes", "a", "b", "1.50", "4.50", "(us)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestQDMAHarnessRejectsOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversize QDMA size accepted")
		}
	}()
	QDMAPingPong(4096, 1)
}

func TestAllPaperClaimsPass(t *testing.T) {
	for _, c := range Claims(testCfg()) {
		if !c.Pass {
			t.Errorf("%s: %s — measured %s", c.ID, c.Paper, c.Measured)
		}
	}
}

// TestClaimsReadFigurePoints: Claims runs one simulation per distinct
// figure point it reads — 22 of them — with Tport's 1 MB ping-pong first
// and Open MPI's last (DESIGN.md §7), and every claim is its verdict over
// the registry figures' values at the points it names.
func TestClaimsReadFigurePoints(t *testing.T) {
	var st parsweep.Stats
	cfg := DefaultConfig().WithIters(4)
	cfg.Stats = &st
	claims := Claims(cfg)
	if st.Jobs() != 22 {
		t.Errorf("Claims ran %d simulations, want 22: one per distinct figure point", st.Jobs())
	}
	figs := map[string]*Result{}
	for _, r := range All(DefaultConfig().WithIters(4)) {
		figs[r.ID] = r
	}
	b := figs["fig7b"]
	want := fmt.Sprintf("read %.2fus vs write %.2fus at 4KB", at(byName(b, "RDMA-Read"), 4096), at(byName(b, "RDMA-Write"), 4096))
	if claims[1].ID != "fig7-read-vs-write" || claims[1].Measured != want {
		t.Errorf("claim %s measured %q, want fig7-read-vs-write measuring %q", claims[1].ID, claims[1].Measured, want)
	}
	for i, c := range paperClaims {
		var v []float64
		for _, pt := range c.points {
			v = append(v, at(byName(figs[pt.fig], pt.series), pt.x))
		}
		if measured, pass := c.verdict(v); claims[i] != (Claim{c.id, c.paper, measured, pass}) {
			t.Errorf("claim %+v, the figures give %q (pass %v)", claims[i], measured, pass)
		}
	}
	jobs, _ := claimJobs(cfg)
	first, last := jobs[0], jobs[len(jobs)-1]
	if first.x != 1<<20 || first.c.names[0] != "MPICH-QsNetII" || last.x != 1<<20 || last.c.names[0] != "PTL/Elan4-RDMA-Read" {
		t.Errorf("jobs run from %v at %d to %v at %d, want Tport's 1 MB point first and Open MPI's last",
			first.c.names, first.x, last.c.names, last.x)
	}
}

func TestDeterministicMeasurements(t *testing.T) {
	spec := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling)
	a := OpenMPIPingPong(spec, 1024, 20)
	b := OpenMPIPingPong(spec, 1024, 20)
	if a != b {
		t.Fatalf("measurement not reproducible: %.6f vs %.6f", a, b)
	}
}
