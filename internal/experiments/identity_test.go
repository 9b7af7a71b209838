package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"qsmpi/internal/simtime/rectest"
)

// The identity matrix is the one gate for "parallelism changes wall-clock
// only". Rows are the things cmd/report, the figure tools and the analyzers
// print; columns are sweep workers {1, GOMAXPROCS+1} × worker shards
// {1, 2, 4}. A row runs only the columns it has: a single simulation has no
// worker axis, and a row that is not measured under shards has no shard
// axis. Cells are compared as strings that carry every float's bit pattern
// and every kernel event count — a two-decimal rendering hides most of what
// a tie-break can move (DESIGN.md §7.2).
//
// It is also the gate for "the figures did not move": the sequential
// one-worker cell of every row is compared with testdata/report_golden.txt,
// which was printed by the harnesses as they stood before the shared testbed
// layer replaced them (PR 21). The golden is never regenerated; a PR that
// means to move a number says which rows in CHANGES.md and edits those cells.

// contract names which cells of a row must agree.
type contract int

const (
	// everyCell: every cell equals the sequential one-worker cell.
	everyCell contract = iota
	// shardedCells: the cells with worker shards equal each other — the
	// self-identity guarantee of DESIGN.md §7.2 for workloads whose sources
	// contend for a link at one instant — and the sequential cell must not
	// agree with them: the day one ordering rule lands (ROADMAP 1a) the row
	// fails until it is relabelled everyCell.
	shardedCells
)

type identityRow struct {
	name     string
	contract contract
	sweep    bool // runs through the parallel sweep engine: has a worker axis
	sharded  bool // measured on clusters that take Config.Shards: has a shard axis
	big      bool // ≥ 1024 ranks: skipped under -short
	run      func(workers, shards int) string
}

// bits renders a measurement and its kernel event count exactly.
func bits(v float64, events int64) string {
	return fmt.Sprintf("%x (%.6f) %d events", v, v, events)
}

func renderResults(figs []*Result) string {
	var sb strings.Builder
	for _, r := range figs {
		sb.WriteString(r.Render())
		sb.WriteString(r.CSV())
		for _, s := range r.Series {
			for _, p := range s.Points {
				fmt.Fprintf(&sb, "%s/%s %d %x\n", r.ID, s.Name, p.Size, p.Value)
			}
		}
	}
	return sb.String()
}

func identityRows() []identityRow {
	sweepCfg := func(iters, workers, shards int) Config {
		cfg := DefaultConfig().WithIters(iters)
		cfg.Workers, cfg.Shards = workers, shards
		return cfg
	}
	rows := []identityRow{
		// The nine figures and tables of the paper. Worker axis only: a
		// 2-rank ping-pong on 2 shards costs 12× its sequential run, and the
		// claims row below visits every configuration under shards.
		{name: "figures", sweep: true, run: func(workers, _ int) string {
			return renderResults(All(sweepCfg(5, workers, 0)))
		}},
		{name: "claims", sweep: true, sharded: true, run: func(workers, shards int) string {
			var sb strings.Builder
			for _, c := range Claims(sweepCfg(4, workers, shards)) {
				fmt.Fprintf(&sb, "%s|%s|%s|%v\n", c.ID, c.Paper, c.Measured, c.Pass)
			}
			return sb.String()
		}},
		{name: "overlap-figures", sweep: true, sharded: true, run: func(workers, shards int) string {
			figs := OverlapFigures(Config{Iters: 4, Warmup: 1, Workers: workers, Shards: shards})
			ptrs := make([]*Result, len(figs))
			for i := range figs {
				ptrs[i] = &figs[i]
			}
			return renderResults(ptrs)
		}},
		{name: "waitstate-report", sharded: true, run: func(_, shards int) string {
			return WaitStateReport(shards)
		}},
		{name: "heatmap-report", sharded: true, run: func(_, shards int) string {
			return HeatmapReport(8, 6, shards, 72)
		}},
		{name: "ablations", sweep: true, run: func(workers, _ int) string {
			return renderResults(Ablations(sweepCfg(5, workers, 0)))
		}},
		{name: "figure-breakdowns", run: func(_, _ int) string {
			return breakdownFingerprint()
		}},
	}
	// The 64 KB rendezvous point of the overlap harness, per progress mode
	// and side: progress sweeps interleaved with module threads and compute
	// blocks.
	for _, recvSide := range []bool{false, true} {
		side := "send"
		if recvSide {
			side = "recv"
		}
		for _, mode := range OverlapModes {
			rows = append(rows, identityRow{
				name: "overlap-64KB/" + side + "/" + mode, sharded: true,
				run: func(_, shards int) string {
					cfg := Config{Iters: 10, Warmup: 2, Shards: shards}
					r, m := cfg.overlapRatio(mode, 0, recvSide, 65536)
					return bits(r, m.SimEvents)
				},
			})
		}
	}
	// Collectives on host trees and NIC trees (Yu et al.'s pair, PAPERS.md)
	// at a cheap size and at the report's 1024-rank row.
	for _, n := range []int{64, 1024} {
		for _, nic := range []bool{false, true} {
			tree := "host"
			if nic {
				tree = "nic"
			}
			for _, op := range []string{"barrier", "bcast", "allreduce"} {
				row := identityRow{
					name: fmt.Sprintf("coll-%d/%s/%s", n, tree, op), sharded: true, big: n >= 1024,
					run: func(_, shards int) string {
						lat, m := Config{Shards: shards}.collLatency(n, nic, op)
						return bits(lat, m.SimEvents)
					},
				}
				// The dissemination barrier's rounds put two same-instant
				// claims on a link from 320 ranks up (every other collective
				// here is tie-free to 1024): sequential and sharded runs
				// order them differently.
				if n == 1024 && !nic && op == "barrier" {
					row.contract = shardedCells
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func TestIdentityMatrix(t *testing.T) {
	golden := rectest.Cells(t, "testdata/report_golden.txt")
	for _, row := range identityRows() {
		t.Run(row.name, func(t *testing.T) {
			if row.big && testing.Short() {
				t.Skip("1024-rank clusters")
			}
			t.Parallel()
			workerAxis, shardAxis := []int{1}, []int{1}
			if row.sweep {
				workerAxis = []int{1, runtime.GOMAXPROCS(0) + 1}
			}
			if row.sharded {
				shardAxis = []int{1, 2, 4}
			}
			// The reference cells: the sequential one-worker cell, and under
			// shardedCells the first cell with worker shards.
			var seq, first string
			for _, shards := range shardAxis {
				for _, workers := range workerAxis {
					got := row.run(workers, shards)
					ref := &seq
					if row.contract == shardedCells && shards > 1 {
						ref = &first
					}
					if *ref == "" {
						*ref = got
					} else if got != *ref {
						t.Errorf("workers=%d shards=%d differs, %s", workers, shards, rectest.FirstDiff(*ref, got))
					}
				}
			}
			if want, ok := golden["@@ "+row.name]; !ok {
				t.Errorf("no cell in testdata/report_golden.txt")
			} else if got := strings.TrimSuffix(seq, "\n"); got != strings.TrimSuffix(want, "\n") {
				t.Errorf("the sequential cell moved away from testdata/report_golden.txt, %s", rectest.FirstDiff(want, got))
			}
			if row.contract == shardedCells && first == seq {
				t.Errorf("the sequential cell agrees with the sharded ones (%s): the row is tie-free now, relabel it everyCell", seq)
			}
		})
	}
}
