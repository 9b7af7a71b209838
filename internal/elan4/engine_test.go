package elan4

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// The DMA engine is a timer-driven state machine that replaced a proc
// (one goroutine per NIC, parked twice per descriptor and once per RDMA
// chunk). The replacement is only legal if it pushes every kernel event at
// the instant, and in the order, the proc pushed its wakes: then the
// (time, sequence) order of the whole simulation is untouched and every
// simulated timestamp survives. testdata/engine_golden.txt was recorded
// from the proc-based engine, with its one spawn event per NIC left out
// of the stream and of the step count — the only events the conversion
// removes. It must never be regenerated from the state machine.

// engineNodes is the bed size of the script: traffic runs between node 0
// and node 3, which sit on different shards at 2 and at 4 workers.
const engineNodes = 4

// engineBed is a bed whose nodes are simulation entities 1..n, optionally
// partitioned over a sharded kernel, with one trace recorder per NIC.
type engineBed struct {
	*bed
	recs []*trace.Recorder
	// errAt[i] is when each onError of a descriptor issued on node i ran,
	// in ps; written by node i's entity only.
	errAt [engineNodes][]int64
}

// failAt returns an onError callback for a descriptor issued on node: an
// expected failure, whose instant the recording pins.
func (b *engineBed) failAt(node int) func(error) {
	return func(error) { b.errAt[node] = append(b.errAt[node], int64(b.host[node].Sched().Now())) }
}

func newEngineBed(shards int) *engineBed {
	cfg := model.Default()
	k := simtime.NewKernel()
	if shards > 1 {
		k.Shard(simtime.ShardPlan{
			Workers:   shards,
			Owner:     func(e simtime.Entity) int { return (int(e)-1)*shards/engineNodes + 1 },
			Lookahead: cfg.WireLatency,
		})
	}
	net := newBedFabric(k, cfg, engineNodes)
	b := &engineBed{bed: &bed{k: k, cfg: cfg, net: net, res: staticResolver{}}}
	for i := 0; i < engineNodes; i++ {
		h := simtime.NewHostSched(k.SchedFor(simtime.Entity(i+1)), fmt.Sprintf("n%d", i), cfg.HostCPUs)
		nic := NewNIC(k, h, net, i, cfg, b.res)
		net.BindPort(i, h.Sched(), nil)
		rec := trace.NewRecorder(0)
		nic.SetTracer(rec)
		c := nic.OpenContext(0)
		c.SetVPID(i)
		b.res[i] = [2]int{i, 0}
		b.host = append(b.host, h)
		b.nic = append(b.nic, nic)
		b.ctx = append(b.ctx, c)
		b.recs = append(b.recs, rec)
	}
	return b
}

// engineScenarios is the script: every way a descriptor can reach the
// engine and every path through it.
var engineScenarios = []struct {
	name string
	gone []string // see TestEngineMatchesProcEngine
	run  func(t *testing.T, b *engineBed)
}{
	{"qdma-4B", nil, func(t *testing.T, b *engineBed) {
		b.ctx[3].CreateQueue(1, 8)
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueQDMA(th, 3, 1, []byte{1, 2, 3, 4}, nil, engineFail(t))
		})
	}},
	{"rdma-write-3-chunks", []string{"7088800", "9008200"}, func(t *testing.T, b *engineBed) {
		n := 2*b.cfg.MTU + 100
		src, dst := b.ctx[0].Register(make([]byte, n)), b.ctx[3].Register(make([]byte, n))
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueRDMAWrite(th, 3, src, dst, n, nil, engineFail(t))
		})
	}},
	{"rdma-read", []string{"8263415"}, func(t *testing.T, b *engineBed) {
		n := b.cfg.MTU + 500
		remote, local := b.ctx[3].Register(make([]byte, n)), b.ctx[0].Register(make([]byte, n))
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueRDMARead(th, 3, remote, local, n, nil, engineFail(t))
		})
	}},
	{"rdma-write-0B", nil, func(t *testing.T, b *engineBed) {
		src, dst := b.ctx[0].Register(make([]byte, 8)), b.ctx[3].Register(make([]byte, 8))
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueRDMAWrite(th, 3, src, dst, 0, nil, engineFail(t))
		})
	}},
	{"two-at-one-instant-idle", []string{"7288800"}, func(t *testing.T, b *engineBed) {
		b.ctx[3].CreateQueue(1, 8)
		n := b.cfg.MTU + 1
		src, dst := b.ctx[0].Register(make([]byte, n)), b.ctx[3].Register(make([]byte, n))
		b.host[0].Sched().After(simtime.Microsecond, "script", func() {
			b.ctx[0].IssueRDMAWriteFromNIC(3, src, dst, n, nil, engineFail(t))
			b.ctx[0].QDMAFromNIC(3, 1, []byte("second"), nil, engineFail(t))
		})
	}},
	{"submit-mid-transfer", []string{"7088800", "9008200", "10927600"}, func(t *testing.T, b *engineBed) {
		b.ctx[3].CreateQueue(1, 8)
		n := 4 * b.cfg.MTU
		src, dst := b.ctx[0].Register(make([]byte, n)), b.ctx[3].Register(make([]byte, n))
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueRDMAWrite(th, 3, src, dst, n, nil, engineFail(t))
		})
		// Lands while the second chunk is on the PCI bus.
		mid := b.cfg.CmdIssue + b.cfg.NICDispatch + b.cfg.DMAStartup +
			simtime.BytesAt(b.cfg.MTU, b.cfg.PCIBandwidth)*3/2
		b.host[0].Sched().After(mid, "script", func() {
			b.ctx[0].QDMAFromNIC(3, 1, []byte("late"), nil, engineFail(t))
		})
	}},
}

func engineFail(t *testing.T) func(error) {
	return func(err error) { t.Errorf("descriptor failed: %v", err) }
}

// engineTrace is what a replay or a recording pins: the executed-event
// count, the end time, every DMACompleted and onError time ("<ps>@nic<i>")
// and — on a kernel without worker shards, the only one a kernel tracer may
// attach to — the timestamp of every executed event, names stripped.
type engineTrace struct {
	steps, end        int64
	completed, errors []string
	stream            []string
}

// engineRun plays one scenario and renders what the goldens pin.
func engineRun(t *testing.T, shards int, run func(*testing.T, *engineBed)) engineTrace {
	b := newEngineBed(shards)
	defer b.k.Close()
	var tr engineTrace
	if shards <= 1 {
		b.k.SetTracer(func(at simtime.Time, what string) {
			tr.stream = append(tr.stream, fmt.Sprint(int64(at)))
		})
	}
	run(t, b)
	b.k.EnableParallel()
	b.k.Run()
	var done []trace.Event
	for _, r := range b.recs {
		for _, e := range r.Events() {
			if e.Kind == trace.DMACompleted {
				done = append(done, e)
			}
		}
	}
	sort.SliceStable(done, func(i, j int) bool { return done[i].At < done[j].At })
	for _, e := range done {
		tr.completed = append(tr.completed, fmt.Sprintf("%d@nic%d", int64(e.At), e.Rank))
	}
	for node, at := range b.errAt {
		for _, ps := range at {
			tr.errors = append(tr.errors, fmt.Sprintf("%d@nic%d", ps, node))
		}
	}
	tr.steps, tr.end = b.k.Steps(), int64(b.k.Now())
	return tr
}

// readGolden parses a recording: per scenario a "summary" line
// (steps=, end=, completed= and errors= lists), a "stream" line and, where
// the recording names them, the "placed" instants a later event diet
// deleted (see compareToRecording).
func readGolden(t *testing.T, path string) map[string]map[string][]string {
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

// compareToRecording requires of a replay every time the recording pins —
// end, completions, errors — and the recording's executed events with
// exactly the instants in gone deleted: each must be in the recording, and
// nothing else may be missing, added or moved. That is what an event diet
// may do (DESIGN §7, "what may be removed under (time, seq)"), and checking
// it this way means the next one edits a list, not a golden.
func compareToRecording(t *testing.T, got engineTrace, rec map[string][]string, gone []string) {
	t.Helper()
	if rec == nil {
		t.Fatal("scenario is not in the recording")
	}
	if want := rec["end"]; len(want) != 1 || fmt.Sprint(got.end) != want[0] {
		t.Errorf("end=%d, recorded %v", got.end, want)
	}
	if !slices.Equal(got.completed, rec["completed"]) {
		t.Errorf("completions diverge from the recording:\n got %v\nwant %v", got.completed, rec["completed"])
	}
	if !slices.Equal(got.errors, rec["errors"]) {
		t.Errorf("errors diverge from the recording:\n got %v\nwant %v", got.errors, rec["errors"])
	}
	if want := rec["steps"]; len(want) != 1 || fmt.Sprint(got.steps+int64(len(gone))) != want[0] {
		t.Errorf("steps=%d, want the recorded %v less the %d deleted events", got.steps, want, len(gone))
	}
	if got.stream == nil {
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
	if !slices.Equal(got.stream, want) {
		i := 0
		for i < len(got.stream) && i < len(want) && got.stream[i] == want[i] {
			i++
		}
		t.Errorf("event stream is not the recording less %v: first difference at event %d\n got %v\nwant %v",
			gone, i, got.stream[i:], want[i:])
	}
}

// TestEngineMatchesProcEngine replays the script without worker shards and
// on 2 and 4 shards against the recording of the proc-based engine. The
// only events that engine executed and this one does not are the placement
// timers of non-final RDMA chunks (placed inside their fabric delivery
// since the stream rework): gone lists them per scenario, chunks−1 per
// stream.
func TestEngineMatchesProcEngine(t *testing.T) {
	golden := readGolden(t, "testdata/engine_golden.txt")
	for _, sc := range engineScenarios {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				compareToRecording(t, engineRun(t, shards, sc.run), golden[sc.name], sc.gone)
			})
		}
	}
}
