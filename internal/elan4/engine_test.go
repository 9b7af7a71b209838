package elan4

import (
	"fmt"
	"sort"
	"testing"

	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
	"qsmpi/internal/simtime/rectest"
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

// engineRun plays one scenario and renders what the goldens pin.
func engineRun(t *testing.T, shards int, run func(*testing.T, *engineBed)) rectest.Trace {
	b := newEngineBed(shards)
	defer b.k.Close()
	var tr rectest.Trace
	if shards <= 1 {
		tr.Watch(b.k)
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
		tr.Completed = append(tr.Completed, fmt.Sprintf("%d@nic%d", int64(e.At), e.Rank))
	}
	for node, at := range b.errAt {
		for _, ps := range at {
			tr.Errors = append(tr.Errors, fmt.Sprintf("%d@nic%d", ps, node))
		}
	}
	tr.Steps, tr.End = b.k.Steps(), int64(b.k.Now())
	return tr
}

// TestEngineMatchesProcEngine replays the script without worker shards and
// on 2 and 4 shards against the recording of the proc-based engine. The
// only events that engine executed and this one does not are the placement
// timers of non-final RDMA chunks (placed inside their fabric delivery
// since the stream rework): gone lists them per scenario, chunks−1 per
// stream.
func TestEngineMatchesProcEngine(t *testing.T) {
	golden := rectest.Read(t, "testdata/engine_golden.txt")
	for _, sc := range engineScenarios {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				rectest.Compare(t, engineRun(t, shards, sc.run), golden[sc.name], sc.gone)
			})
		}
	}
}
