package elan4

import (
	"fmt"
	"os"
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
	run  func(t *testing.T, b *engineBed)
}{
	{"qdma-4B", func(t *testing.T, b *engineBed) {
		b.ctx[3].CreateQueue(1, 8)
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueQDMA(th, 3, 1, []byte{1, 2, 3, 4}, nil, engineFail(t))
		})
	}},
	{"rdma-write-3-chunks", func(t *testing.T, b *engineBed) {
		n := 2*b.cfg.MTU + 100
		src, dst := b.ctx[0].Register(make([]byte, n)), b.ctx[3].Register(make([]byte, n))
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueRDMAWrite(th, 3, src, dst, n, nil, engineFail(t))
		})
	}},
	{"rdma-read", func(t *testing.T, b *engineBed) {
		n := b.cfg.MTU + 500
		remote, local := b.ctx[3].Register(make([]byte, n)), b.ctx[0].Register(make([]byte, n))
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueRDMARead(th, 3, remote, local, n, nil, engineFail(t))
		})
	}},
	{"rdma-write-0B", func(t *testing.T, b *engineBed) {
		src, dst := b.ctx[0].Register(make([]byte, 8)), b.ctx[3].Register(make([]byte, 8))
		b.host[0].Spawn("s", func(th *simtime.Thread) {
			b.ctx[0].IssueRDMAWrite(th, 3, src, dst, 0, nil, engineFail(t))
		})
	}},
	{"two-at-one-instant-idle", func(t *testing.T, b *engineBed) {
		b.ctx[3].CreateQueue(1, 8)
		n := b.cfg.MTU + 1
		src, dst := b.ctx[0].Register(make([]byte, n)), b.ctx[3].Register(make([]byte, n))
		b.host[0].Sched().After(simtime.Microsecond, "script", func() {
			b.ctx[0].IssueRDMAWriteFromNIC(3, src, dst, n, nil, engineFail(t))
			b.ctx[0].QDMAFromNIC(3, 1, []byte("second"), nil, engineFail(t))
		})
	}},
	{"submit-mid-transfer", func(t *testing.T, b *engineBed) {
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

// engineRun plays one scenario and renders what the golden pins: the
// step count, the end time, every DMACompleted time and — on a kernel
// without worker shards, the only one a kernel tracer may attach to — the
// timestamp of every executed event, names stripped.
func engineRun(t *testing.T, shards int, run func(*testing.T, *engineBed)) (summary, stream string) {
	b := newEngineBed(shards)
	defer b.k.Close()
	var ticks []string
	if shards <= 1 {
		b.k.SetTracer(func(at simtime.Time, what string) {
			ticks = append(ticks, fmt.Sprint(int64(at)))
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
	var s strings.Builder
	fmt.Fprintf(&s, "steps=%d end=%d completed=", b.k.Steps(), int64(b.k.Now()))
	for _, e := range done {
		fmt.Fprintf(&s, "%d@nic%d ", int64(e.At), e.Rank)
	}
	return strings.TrimSpace(s.String()), strings.Join(ticks, " ")
}

// TestEngineMatchesProcEngine replays the script without worker
// shards and on 2 and 4 shards against the recording of the proc-based engine.
func TestEngineMatchesProcEngine(t *testing.T) {
	raw, err := os.ReadFile("testdata/engine_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, val, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "#") {
			golden[key] = val
		}
	}
	for _, sc := range engineScenarios {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				summary, stream := engineRun(t, shards, sc.run)
				if want := golden[sc.name+" summary"]; summary != want {
					t.Errorf("summary diverges from the proc-based engine:\n got %s\nwant %s", summary, want)
				}
				if want := golden[sc.name+" stream"]; shards == 1 && stream != want {
					t.Errorf("event stream diverges from the proc-based engine:\n got %s\nwant %s", stream, want)
				}
			})
		}
	}
}
