package lint_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"qsmpi/internal/lint"
	"qsmpi/internal/lint/driver"
	"qsmpi/internal/lint/linttest"
)

// Each analyzer runs over a fixture package seeded with violations (and
// the clean patterns it must accept); expectations live in the fixtures
// as `// want` comments.

func TestDetClock(t *testing.T) {
	linttest.Run(t, lint.DetClock, "detclockfix")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder, "maporderfix")
}

func TestKernelOwnGlobals(t *testing.T) {
	// The fixture's import path sits inside the module so the sim-state
	// package scope applies.
	linttest.Run(t, lint.KernelOwn, "qsmpi/internal/kfix")
}

func TestKernelOwnJobClosures(t *testing.T) {
	linttest.Run(t, lint.KernelOwn, "kjobs")
}

func TestKernelOwnShardSched(t *testing.T) {
	// The fixture type-checks under the real tport import path: rule 3 is
	// scoped to the shard-resident layers.
	linttest.Run(t, lint.KernelOwn, "qsmpi/internal/tport")
}

func TestKernelOwnChainCallbacks(t *testing.T) {
	// Rule 3 inside NIC chain callbacks: the fixture type-checks under the
	// real libelan import path, a shard-resident layer, and registers
	// closures in the shape the collective trees fire from the event
	// engine.
	linttest.Run(t, lint.KernelOwn, "qsmpi/internal/libelan")
}

// TestPoolUse and TestReqLife run the one ownership analyzer over its two
// fixtures: the pool's retired state, and the lent state with the request
// obligation.
func TestPoolUse(t *testing.T) {
	linttest.Run(t, lint.Ownership, "poolfix")
}

// TestQueueRelease runs the ownership analyzer over its receive-queue
// fixture: a message released to its ring is retired like a Put buffer.
func TestQueueRelease(t *testing.T) {
	linttest.Run(t, lint.Ownership, "releasefix")
}

func TestTraceCorr(t *testing.T) {
	// The fixture type-checks under the real pml import path: tracecorr
	// is scoped to the protocol layers.
	linttest.Run(t, lint.TraceCorr, "qsmpi/internal/pml")
}

func TestTraceCorrNonblocking(t *testing.T) {
	// The nonblocking-collective trace kinds under the real mpi import
	// path: NBC schedule spans need the correlator, and the per-rank
	// ProgressDuty counter samples must opt out with an explicit zero.
	linttest.Run(t, lint.TraceCorr, "qsmpi/internal/mpi")
}

func TestTraceCorrCollective(t *testing.T) {
	// The NIC-collective trace kinds under the real ptlelan4 import path:
	// HWCollUp/HWCollDone literals need the correlator like any protocol
	// event.
	linttest.Run(t, lint.TraceCorr, "qsmpi/internal/ptlelan4")
}

func TestReqLife(t *testing.T) {
	linttest.Run(t, lint.Ownership, "qsmpi/reqlifefix")
}

func TestCollOrder(t *testing.T) {
	linttest.Run(t, lint.CollOrder, "qsmpi/collorderfix")
}

// TestCollOrderDeterministic analyzes a helper that enters two
// collectives, one through a chain of four helpers, 20 times: the
// collective its message names must not depend on map order.
func TestCollOrderDeterministic(t *testing.T) {
	for range 20 {
		linttest.Run(t, lint.CollOrder, "qsmpi/collorderchain")
	}
}

func TestCollOrderFacts(t *testing.T) {
	// The collective hides one package away: only the table the dep
	// fixture publishes can reveal it.
	linttest.Run(t, lint.CollOrder, "qsmpi/collorderfacts", "qsmpi/collhelperdep")
}

func TestSuppressionAudit(t *testing.T) {
	// The full suite plus the audit: an earned //lint:allow stays silent,
	// a stale one and an unknown-analyzer one are findings.
	linttest.RunSuite(t, lint.Analyzers(), "qsmpi/suppressfix")
}

// TestCheckParallelDeterminism is the meta-test the suite exists for, and
// the proof that the driver's sharding never leaks into the report: the
// real tree, loaded once, must carry zero findings at 1 and at 4 workers,
// so `make lint` can gate `make check` without suppressions beyond the
// documented //lint:allow sites.
func TestCheckParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the whole tree")
	}
	l, err := driver.Load(linttest.ModuleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	render := func(par int) string {
		findings, err := l.CheckAll(lint.Analyzers(), par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		var sb strings.Builder
		for _, f := range findings {
			fmt.Fprintln(&sb, f)
		}
		return sb.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Errorf("par=1 and par=4 reports differ:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
	if serial != "" {
		t.Errorf("the tree has findings:\n%s", serial)
	}
}

// TestDriverFactsCrossPackages drives the real driver end to end over an
// external module: the collective table the helper package publishes must
// reach the check of the app package for the rank-guarded call there to
// be flagged. TestCollOrderFacts checks its packages one after another
// and TestCheckParallelDeterminism expects no finding, so this is the one
// test a broken hand-off in CheckAll fails.
func TestDriverFactsCrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over a scratch module")
	}
	root := linttest.ModuleRoot(t)
	tmp := t.TempDir()

	mod := filepath.Join(tmp, "factsapp")
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", fmt.Sprintf("module example.com/factsapp\n\ngo 1.22\n\nrequire qsmpi v0.0.0\n\nreplace qsmpi => %s\n", root))
	write("helper/helper.go", `package helper

import "qsmpi"

// Sync hides a collective behind a package boundary.
func Sync(c *qsmpi.Comm) {
	c.Barrier()
}
`)
	write("app/app.go", `package app

import (
	"example.com/factsapp/helper"
	"qsmpi"
)

// Divergent guards the helper call on rank: only the helper's table can
// reveal the Barrier behind it.
func Divergent(c *qsmpi.Comm) {
	if c.Rank() == 0 {
		helper.Sync(c)
	}
}
`)

	tidy := exec.Command("go", "mod", "tidy")
	tidy.Dir = mod
	if out, err := tidy.CombinedOutput(); err != nil {
		t.Fatalf("go mod tidy: %v\n%s", err, out)
	}

	l, err := driver.Load(mod, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		findings, err := l.CheckAll(lint.Analyzers(), par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(findings) != 1 || findings[0].Analyzer != "collorder" ||
			!strings.Contains(findings[0].Message, "enters collective Barrier") ||
			filepath.Base(findings[0].Pos.Filename) != "app.go" {
			t.Errorf("par=%d: want exactly the collorder finding in app.go, got %v", par, findings)
		}
	}
}
