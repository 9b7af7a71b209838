package model

import (
	"testing"

	"qsmpi/internal/simtime"
)

func TestDefaultIsSane(t *testing.T) {
	c := Default()
	if c.HostCPUs < 1 {
		t.Error("no CPUs")
	}
	for name, d := range map[string]simtime.Duration{
		"CmdIssue": c.CmdIssue, "NICDispatch": c.NICDispatch,
		"DMAStartup": c.DMAStartup, "QDMADeliver": c.QDMADeliver,
		"EventUpdate": c.EventUpdate, "WireLatency": c.WireLatency,
		"SwitchLatency": c.SwitchLatency, "HostEventPoll": c.HostEventPoll,
		"InterruptLatency": c.InterruptLatency, "ThreadWake": c.ThreadWake,
		"ThreadHandoff": c.ThreadHandoff, "ThreadContention": c.ThreadContention,
		"PMLMatchCost": c.PMLMatchCost, "PMLRequestCost": c.PMLRequestCost,
		"DatatypeSetup": c.DatatypeSetup, "TCPSyscall": c.TCPSyscall,
		"OOBLatency": c.OOBLatency,
	} {
		if d <= 0 {
			t.Errorf("%s must be positive", name)
		}
	}
	for name, bw := range map[string]float64{
		"MemcpyBandwidth": c.MemcpyBandwidth, "PIOBandwidth": c.PIOBandwidth,
		"PCIBandwidth": c.PCIBandwidth, "LinkBandwidth": c.LinkBandwidth,
		"TCPCopyBandwidth": c.TCPCopyBandwidth, "TCPLinkBandwidth": c.TCPLinkBandwidth,
	} {
		if bw <= 0 {
			t.Errorf("%s must be positive", name)
		}
	}
}

func TestTestbedRelationships(t *testing.T) {
	c := Default()
	// PCI-X is the bandwidth bottleneck, below the QsNetII link rate.
	if c.PCIBandwidth >= c.LinkBandwidth {
		t.Error("PCI must be the bottleneck on this testbed")
	}
	// Interrupts dominate the blocking path (Table 1's ~10us).
	if c.InterruptLatency < 4*c.ThreadWake/2 {
		t.Error("interrupt latency implausibly small vs thread wake")
	}
	// NIC-side matching must be cheaper than host-side PML matching plus
	// request handling (the Fig. 10 small-message gap's origin).
	if c.TportNICMatch >= c.PMLMatchCost+c.PMLRequestCost {
		t.Error("NIC matching should be cheaper than the host path")
	}
	// QsNet links are clean by default; loss is opt-in failure injection.
	if c.LinkLossRate != 0 {
		t.Error("default links must be lossless")
	}
}
