// Sampler unit tests: tick cadence and cancel-on-idle, ring eviction,
// late-registration zero-padding, matrix assembly, delta conversion and
// heatmap rendering — all on a bare kernel with synthetic probes.
package obs

import (
	"strings"
	"testing"

	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// driveSampler binds a sampler to a fresh kernel with one synthetic
// rank probe (value = number of samples taken so far) and keeps the
// kernel alive for `alive`; the cancelable tick chain must then die
// with the run.
func driveSampler(t *testing.T, s *Sampler, alive simtime.Duration) {
	t.Helper()
	k := simtime.NewKernel()
	s.Bind(k)
	// A non-cancelable anchor keeps the run alive; the sampler's chain
	// is cancelable, so the kernel stops at the anchor, not one tick
	// after it.
	k.SchedFor(simtime.GlobalEntity).After(alive, "test:anchor", func() {})
	k.Run()
	if now := k.Now(); now != simtime.Time(alive) {
		t.Fatalf("kernel ran to %v, want %v — the sampler chain kept the run alive", now, alive)
	}
}

func TestSamplerTickCadence(t *testing.T) {
	s := NewSampler(10*simtime.Microsecond, 0)
	n := 0
	s.RegisterRank(0, 0, nil, func(now simtime.Time) [NumRankGauges]int64 {
		n++
		var v [NumRankGauges]int64
		v[GaugeDuty] = int64(n)
		return v
	})
	driveSampler(t, s, 95*simtime.Microsecond)
	// Ticks at 10us+1ps, 20us+1ps, ... 90us+1ps: nine ticks.
	if s.Ticks() != 9 || n != 9 {
		t.Fatalf("ticks = %d, probe calls = %d, want 9 each", s.Ticks(), n)
	}
	m := s.RankMatrix(GaugeDuty)
	if len(m.Times) != 9 || len(m.Rows) != 1 || len(m.Rows[0].Vals) != 9 {
		t.Fatalf("matrix shape %dx%d (row len %d), want 1x9", len(m.Rows), len(m.Times), len(m.Rows[0].Vals))
	}
	for i, v := range m.Rows[0].Vals {
		if v != int64(i+1) {
			t.Fatalf("column %d = %d, want %d", i, v, i+1)
		}
	}
}

func TestSamplerRingEviction(t *testing.T) {
	s := NewSampler(10*simtime.Microsecond, 4)
	n := int64(0)
	s.RegisterRank(0, 0, nil, func(now simtime.Time) [NumRankGauges]int64 {
		n++
		return [NumRankGauges]int64{n}
	})
	driveSampler(t, s, 95*simtime.Microsecond)
	m := s.RankMatrix(Gauge(0))
	if len(m.Times) != 4 || m.Evicted != 5 {
		t.Fatalf("retained %d ticks, evicted %d; want 4 retained, 5 evicted", len(m.Times), m.Evicted)
	}
	want := []int64{6, 7, 8, 9}
	for i, v := range m.Rows[0].Vals {
		if v != want[i] {
			t.Fatalf("ring column %d = %d, want %d (oldest evicted first)", i, v, want[i])
		}
	}
	if s.Ticks() != 9 {
		t.Fatalf("ticks = %d, want 9 (eviction must not hide tick count)", s.Ticks())
	}
}

// TestSamplerFullRingTickIsConstantWork: once a bounded ring is full a
// tick overwrites the oldest column and moves nothing else — exactly one
// physical slot of each ring changes, whether the ring holds 4 ticks or
// 4096 — and the matrices still unroll oldest-first, a series registered
// on a wrapped ring included.
func TestSamplerFullRingTickIsConstantWork(t *testing.T) {
	for _, limit := range []int{4, 4096} {
		s := NewSampler(10*simtime.Microsecond, limit)
		n := int64(0)
		s.RegisterRank(0, 0, nil, func(simtime.Time) [NumRankGauges]int64 { n++; return [NumRankGauges]int64{n} })
		s.RegisterLink(0, 0, nil, func() [NumLinkGauges]int64 { return [NumLinkGauges]int64{n * 10} })
		// Fill the ring and wrap it three columns past full.
		driveSampler(t, s, simtime.Duration(limit+3)*10*simtime.Microsecond+5*simtime.Microsecond)
		if got := int(s.Ticks()); got != limit+3 {
			t.Fatalf("limit %d: %d ticks, want %d", limit, got, limit+3)
		}
		ls, rs := s.nodes[0][0], s.nodes[0][1]
		times := append([]simtime.Time(nil), s.times...)
		rank := append([]int64(nil), rs.ring[0]...)
		link := append([]int64(nil), ls.ring[0]...)

		s.RegisterRank(1, 0, nil, func(simtime.Time) [NumRankGauges]int64 { return [NumRankGauges]int64{-1} })
		s.takeSample()

		changed := 0
		for i := range times {
			if s.times[i] != times[i] {
				changed++
			}
			if rs.ring[0][i] != rank[i] {
				changed++
			}
			if ls.ring[0][i] != link[i] {
				changed++
			}
		}
		if len(s.times) != limit || len(rs.ring[0]) != limit || len(ls.ring[0]) != limit || changed != 3 {
			t.Fatalf("limit %d: a tick on a full ring changed %d slots across 3 rings of %d/%d/%d, want one each of %d",
				limit, changed, len(s.times), len(rs.ring[0]), len(ls.ring[0]), limit)
		}

		m, lm := s.RankMatrix(Gauge(0)), s.LinkMatrix(LinkGauge(0))
		if m.Evicted != 4 || len(m.Times) != limit || len(lm.Times) != limit {
			t.Fatalf("limit %d: evicted %d, %d columns; want 4 evicted, %d columns", limit, m.Evicted, len(m.Times), limit)
		}
		for i := 1; i < limit; i++ {
			if m.Times[i] <= m.Times[i-1] {
				t.Fatalf("limit %d: unrolled stamps not increasing at column %d: %v then %v", limit, i, m.Times[i-1], m.Times[i])
			}
		}
		for i := 0; i < limit; i++ {
			tick := int64(i + 5) // ticks 1..4 were evicted
			late := int64(0)     // rank 1 joined before the last tick only
			if i == limit-1 {
				late = -1
			}
			// A tick reads a node's links before its ranks: the link probe
			// sees the count the previous tick left.
			if m.Rows[0].Vals[i] != tick || lm.Rows[0].Vals[i] != (tick-1)*10 || m.Rows[1].Vals[i] != late {
				t.Fatalf("limit %d column %d: rank 0 = %d, link = %d, late rank = %d; want %d, %d, %d",
					limit, i, m.Rows[0].Vals[i], lm.Rows[0].Vals[i], m.Rows[1].Vals[i], tick, (tick-1)*10, late)
			}
		}
	}
}

func TestSamplerLateRegistrationPadding(t *testing.T) {
	s := NewSampler(10*simtime.Microsecond, 0)
	s.RegisterRank(0, 0, nil, func(now simtime.Time) [NumRankGauges]int64 {
		return [NumRankGauges]int64{1}
	})
	k := simtime.NewKernel()
	s.Bind(k)
	g := k.SchedFor(simtime.GlobalEntity)
	// Register rank 1 mid-run, after three ticks have already fired.
	g.After(35*simtime.Microsecond, "test:late-register", func() {
		s.RegisterRank(1, 0, nil, func(now simtime.Time) [NumRankGauges]int64 {
			return [NumRankGauges]int64{2}
		})
	})
	g.After(65*simtime.Microsecond, "test:anchor", func() {})
	k.Run()
	m := s.RankMatrix(Gauge(0))
	if len(m.Rows) != 2 || len(m.Times) != 6 {
		t.Fatalf("matrix shape %dx%d, want 2x6", len(m.Rows), len(m.Times))
	}
	late := m.Rows[1]
	if len(late.Vals) != 6 {
		t.Fatalf("late row has %d columns, want 6 (zero-padded)", len(late.Vals))
	}
	for i, v := range late.Vals {
		want := int64(0)
		if i >= 3 {
			want = 2
		}
		if v != want {
			t.Fatalf("late row column %d = %d, want %d", i, v, want)
		}
	}
}

func TestSamplerEmitsGaugeEvents(t *testing.T) {
	rec := trace.NewRecorder(0)
	s := NewSampler(10*simtime.Microsecond, 0)
	s.RegisterRank(3, 0, rec, func(now simtime.Time) [NumRankGauges]int64 {
		return [NumRankGauges]int64{7}
	})
	s.RegisterLink(0, 0, rec, func() [NumLinkGauges]int64 {
		return [NumLinkGauges]int64{11, 22, 33}
	})
	driveSampler(t, s, 15*simtime.Microsecond)
	var rank, link int
	for _, e := range rec.Events() {
		if e.Kind != trace.GaugeSample {
			t.Fatalf("non-gauge event from sampler: %+v", e)
		}
		switch e.Layer {
		case trace.LayerPML:
			rank++
			if e.Rank != 3 || e.Peer != -1 {
				t.Fatalf("rank sample mislabeled: %+v", e)
			}
		case trace.LayerFabric:
			link++
			if e.Rank != 0 || e.Peer != 0 {
				t.Fatalf("link sample mislabeled: %+v", e)
			}
		default:
			t.Fatalf("unexpected layer: %+v", e)
		}
		if e.Corr != 0 {
			t.Fatalf("gauge sample carries a correlator: %+v", e)
		}
	}
	if rank != int(NumRankGauges) || link != int(NumLinkGauges) {
		t.Fatalf("one tick emitted %d rank + %d link samples, want %d + %d",
			rank, link, NumRankGauges, NumLinkGauges)
	}
}

func TestMatrixDeltasAndHeatmap(t *testing.T) {
	m := Matrix{
		Gauge: "uplink-bytes",
		Times: []simtime.Time{10, 20, 30, 40},
		Rows: []Series{
			{Label: "port   0", Vals: []int64{100, 250, 250, 400}},
			{Label: "port   1", Vals: []int64{0, 0, 90, 90}},
		},
	}
	d := m.Deltas()
	if got := d.Rows[0].Vals; got[0] != 100 || got[1] != 150 || got[2] != 0 || got[3] != 150 {
		t.Fatalf("deltas row 0 = %v", got)
	}
	if got := d.Rows[1].Vals; got[2] != 90 {
		t.Fatalf("deltas row 1 = %v", got)
	}
	// Cumulative input must be untouched (Deltas returns a copy).
	if m.Rows[0].Vals[1] != 250 {
		t.Fatal("Deltas mutated its input")
	}
	h := d.Heatmap(80)
	if !strings.Contains(h, "uplink-bytes") || !strings.Contains(h, "port   0") {
		t.Fatalf("heatmap missing header or labels:\n%s", h)
	}
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("heatmap has %d lines, want header + 2 rows:\n%s", len(lines), h)
	}
	// Zero cells render blank; the max cell renders the hottest glyph.
	if !strings.Contains(lines[2], " ") || !strings.Contains(lines[1], "@") {
		t.Fatalf("heatmap glyph scale wrong:\n%s", h)
	}
	// Folding: 4 columns folded to 2 keep the per-bucket max.
	f := d.Heatmap(2)
	if !strings.Contains(f, "folded") {
		t.Fatalf("folded heatmap lacks fold marker:\n%s", f)
	}
}

// AnalyzeWaits on a hand-built stream: every classification rule firing
// from first principles, with exact durations.
func TestAnalyzeWaitsSynthetic(t *testing.T) {
	us := func(x int64) simtime.Time { return simtime.Time(x) * simtime.Time(simtime.Microsecond) }
	corr := trace.MsgID(0, 1)
	evs := []trace.Event{
		// Receiver posts at 5us (req 9), sender posts at 30us: late-sender 25us.
		{At: us(5), Rank: 1, Layer: trace.LayerPML, Kind: trace.RecvPosted, ReqID: 9, Peer: 0, Bytes: 64},
		{At: us(30), Rank: 0, Layer: trace.LayerPML, Kind: trace.SendPosted, ReqID: 1, Peer: 1, Bytes: 64, Corr: corr},
		// QDMA retried at 31us, deposited at 34us: nic-contention 3us.
		{At: us(31), Rank: 0, Layer: trace.LayerElan4, Kind: trace.QDMARetried, ReqID: 1, Peer: 1, Corr: corr},
		{At: us(34), Rank: 0, Layer: trace.LayerElan4, Kind: trace.QDMADeposited, ReqID: 1, Peer: 1, Corr: corr},
		// Arrives unexpected at 35us, matched at 47us: late-receiver 12us.
		{At: us(35), Rank: 1, Layer: trace.LayerPML, Kind: trace.FirstArrived, ReqID: 9, Peer: 0, Bytes: 64, Corr: corr},
		{At: us(35), Rank: 1, Layer: trace.LayerPML, Kind: trace.Unexpected, ReqID: 9, Peer: 0, Bytes: 64, Corr: corr},
		{At: us(47), Rank: 1, Layer: trace.LayerPML, Kind: trace.Matched, ReqID: 9, Peer: 0, Bytes: 64, Corr: corr},
		{At: us(48), Rank: 1, Layer: trace.LayerPML, Kind: trace.RecvCompleted, ReqID: 9, Peer: 0, Bytes: 64, Corr: corr},
		{At: us(48), Rank: 0, Layer: trace.LayerPML, Kind: trace.SendCompleted, ReqID: 1, Peer: 1, Bytes: 64, Corr: corr},
		// A 3-rank collective epoch: enters at 50/60/70us on the NIC path.
		{At: us(50), Rank: 0, Layer: trace.LayerPML, Kind: trace.CollEnter, ReqID: 100, Tag: trace.CollOpBarrier, Peer: 1, Corr: trace.MsgID(0, 100)},
		{At: us(60), Rank: 1, Layer: trace.LayerPML, Kind: trace.CollEnter, ReqID: 100, Tag: trace.CollOpBarrier, Peer: 1, Corr: trace.MsgID(1, 100)},
		{At: us(70), Rank: 2, Layer: trace.LayerPML, Kind: trace.CollEnter, ReqID: 100, Tag: trace.CollOpBarrier, Peer: 1, Corr: trace.MsgID(2, 100)},
		{At: us(75), Rank: 2, Layer: trace.LayerPML, Kind: trace.CollExit, ReqID: 100, Tag: trace.CollOpBarrier, Peer: 1, Corr: trace.MsgID(2, 100)},
	}
	p := AnalyzeWaits(evs)
	get := func(k WaitKind) []Wait {
		var out []Wait
		for _, w := range p.Waits {
			if w.Kind == k {
				out = append(out, w)
			}
		}
		return out
	}
	ls := get(WaitLateSender)
	if len(ls) != 1 || ls[0].Rank != 1 || ls[0].Peer != 0 || ls[0].Dur != 25*simtime.Microsecond {
		t.Fatalf("late-sender = %+v, want rank 1 on peer 0 for 25us", ls)
	}
	lr := get(WaitLateReceiver)
	if len(lr) != 1 || lr[0].Rank != 0 || lr[0].Peer != 1 || lr[0].Dur != 12*simtime.Microsecond {
		t.Fatalf("late-receiver = %+v, want rank 0 on peer 1 for 12us", lr)
	}
	nc := get(WaitNIC)
	if len(nc) != 1 || nc[0].Rank != 0 || nc[0].Dur != 3*simtime.Microsecond {
		t.Fatalf("nic-contention = %+v, want rank 0 for 3us", nc)
	}
	wb := get(WaitBarrier)
	if len(wb) != 2 {
		t.Fatalf("barrier waits = %+v, want 2 (ranks 0 and 1)", wb)
	}
	if wb[0].Rank != 0 || wb[0].Dur != 20*simtime.Microsecond ||
		wb[1].Rank != 1 || wb[1].Dur != 10*simtime.Microsecond {
		t.Fatalf("barrier waits = %+v, want rank 0 for 20us and rank 1 for 10us", wb)
	}
	if len(p.Epochs) != 1 {
		t.Fatalf("epochs = %+v, want one", p.Epochs)
	}
	ep := p.Epochs[0]
	if !ep.NIC || ep.Op != trace.CollOpBarrier || len(ep.Ranks) != 3 || ep.MaxUS != 20 {
		t.Fatalf("epoch = %+v, want NIC barrier of 3 ranks with 20us max skew", ep)
	}
	stats := p.SkewStats()
	if len(stats) != 1 || stats[0].Samples != 3 || !stats[0].NIC {
		t.Fatalf("skew stats = %+v", stats)
	}
	// 0us, 10us, 20us skews land in buckets <1, <16, <32.
	if stats[0].Buckets[0] != 1 || stats[0].Buckets[4] != 1 || stats[0].Buckets[5] != 1 {
		t.Fatalf("skew buckets = %v", stats[0].Buckets)
	}
	out := p.Render()
	for _, want := range []string{"late-sender", "wait-at-barrier", "arrival skew", "barrier", "nic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
