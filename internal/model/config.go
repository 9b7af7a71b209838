// Package model holds the calibrated cost model for the simulated
// testbed: an 8-node cluster of dual 3.0 GHz Xeon hosts on a QsNetII
// network (quaternary fat-tree of Elite-4 switches, Elan4 QM-500 NICs),
// matching the evaluation platform of the paper.
//
// Every latency constant in the repository lives here. The defaults are
// calibrated so the zero-byte latencies and asymptotic bandwidths land
// near the paper's reported values; the experiments in EXPERIMENTS.md
// reproduce the relationships between configurations (who wins, by what
// factor, where curves cross), which is the claim this reproduction makes.
package model

import (
	"qsmpi/internal/fabric"
	"qsmpi/internal/simtime"
)

// Config is the full hardware/software cost model. A zero Config is not
// usable; start from Default() and override.
type Config struct {
	// ---- Host ----

	// HostCPUs is the number of processors per node (dual Xeon: 2).
	HostCPUs int
	// MemcpyStartup is the fixed cost of starting a host memory copy.
	MemcpyStartup simtime.Duration
	// MemcpyBandwidth is host memcpy throughput in bytes/second
	// (PC2100 DDR-SDRAM).
	MemcpyBandwidth float64

	// ---- Elan4 NIC: host-side issue costs ----

	// CmdIssue is the host cost to construct a command descriptor and
	// start writing it to the NIC command port.
	CmdIssue simtime.Duration
	// PIOBandwidth is the effective host→NIC programmed-IO bandwidth for
	// inlining payload into the command queue (write-combined bursts over
	// PCI-X).
	PIOBandwidth float64

	// ---- Elan4 NIC: on-NIC costs ----

	// NICDispatch is the NIC's per-command processing time (thread
	// scheduling on the Elan4 microcode engine).
	NICDispatch simtime.Duration
	// DMAStartup is the DMA engine's per-descriptor startup.
	DMAStartup simtime.Duration
	// PCIBandwidth is the host-memory DMA throughput over PCI-X 64/133.
	PCIBandwidth float64
	// QDMADeliver is the receiving NIC's cost to deposit a queued message
	// into a receive-queue slot.
	QDMADeliver simtime.Duration
	// EventUpdate is the NIC cost to update an Elan event (decrement a
	// count, trigger a chain).
	EventUpdate simtime.Duration
	// RDMAReadRequest is the extra one-way cost of the STEN get request
	// packet that an RDMA read sends before data flows back.
	RDMAReadRequest simtime.Duration

	// ---- Network fabric ----

	// LinkBandwidth is the per-direction link rate of a QsNetII link as
	// seen by payload (bytes/second).
	LinkBandwidth float64
	// WireLatency is per-link propagation + serialization setup.
	WireLatency simtime.Duration
	// SwitchLatency is the Elite-4 crossbar crossing time.
	SwitchLatency simtime.Duration
	// MTU is the maximum packet payload the NIC puts on the wire; larger
	// transfers are chunked and pipelined at this granularity.
	MTU int
	// PacketOverhead is the per-packet header/CRC bytes on the wire.
	PacketOverhead int
	// FatTreeRadix is the switch port count used to build the fat-tree.
	FatTreeRadix int
	// LinkLossRate injects per-packet CRC errors that the link layer
	// retransmits in order (0 = clean links, the default; tests use it
	// for failure injection).
	LinkLossRate float64
	// LinkRetryDelay is the link-level retransmission turnaround.
	LinkRetryDelay simtime.Duration

	// ---- Host-side completion detection ----

	// HostEventPoll is the cost of one poll of a host event word.
	HostEventPoll simtime.Duration
	// InterruptLatency is NIC interrupt delivery to a blocked host thread
	// (MSI + kernel IRQ path), before scheduler wakeup.
	InterruptLatency simtime.Duration
	// ThreadWake is the OS cost to dispatch a woken thread onto a CPU
	// (run-queue, context switch, cache warmup).
	ThreadWake simtime.Duration
	// ThreadHandoff is the cost for one thread to signal another on the
	// same host (condvar signal + switch), used when a progress thread
	// completes a request the application thread is blocked on.
	ThreadHandoff simtime.Duration
	// ThreadContention is the extra per-wakeup cost when multiple
	// progress threads share the host's CPUs and caches (interrupt and
	// processor affinity left at OS defaults, as in the paper's Table 1
	// measurements): scheduler migrations and cache refills lengthen
	// every wake.
	ThreadContention simtime.Duration

	// ---- Quadrics QDMA protocol constants ----

	// QDMAMaxPayload is the largest queued-DMA message (hardware limit).
	QDMAMaxPayload int
	// QueueSlots is the default receive-queue depth (QSLOTS).
	QueueSlots int

	// ---- Open MPI software costs ----

	// PMLMatchCost is the host cost of one PML matching attempt
	// (list walk + compare).
	PMLMatchCost simtime.Duration
	// PMLRequestCost is per-request bookkeeping (alloc, init, completion).
	PMLRequestCost simtime.Duration
	// PMLScheduleCost is the cost of one scheduling decision across PTLs.
	PMLScheduleCost simtime.Duration
	// DatatypeSetup is the cost to instantiate the datatype copy engine
	// for a request (the ~0.4us the paper measures as "DTP" overhead).
	DatatypeSetup simtime.Duration

	// ---- MPICH-QsNetII (Tport) baseline ----

	// TportNICMatch is the NIC-side tag-matching cost per message
	// (replaces host-side PML matching in the baseline).
	TportNICMatch simtime.Duration
	// TportHostCost is the baseline's thin host-side per-message cost.
	TportHostCost simtime.Duration

	// ---- TCP/IP PTL baseline ----

	// TCPSyscall is the kernel-crossing cost of a send/recv syscall.
	TCPSyscall simtime.Duration
	// TCPStackCost is per-packet protocol processing in the kernel.
	TCPStackCost simtime.Duration
	// TCPCopyBandwidth is socket copy throughput (user↔kernel).
	TCPCopyBandwidth float64
	// TCPLinkBandwidth is the Ethernet link rate.
	TCPLinkBandwidth float64
	// TCPWireLatency is Ethernet propagation + switch latency.
	TCPWireLatency simtime.Duration
	// TCPMTU is the Ethernet MTU.
	TCPMTU int

	// ---- Run-time environment ----

	// OOBLatency is the latency of one out-of-band (RTE) message, used
	// only for bootstrap, connection setup and dynamic process management.
	OOBLatency simtime.Duration
}

// Default returns the calibrated model of the paper's testbed.
func Default() Config {
	return Config{
		HostCPUs:        2,
		MemcpyStartup:   simtime.Micros(0.06),
		MemcpyBandwidth: 1.6e9,

		CmdIssue:        simtime.Micros(0.50),
		PIOBandwidth:    2.4e9,
		NICDispatch:     simtime.Micros(0.30),
		DMAStartup:      simtime.Micros(0.35),
		PCIBandwidth:    1.067e9,
		QDMADeliver:     simtime.Micros(0.45),
		EventUpdate:     simtime.Micros(0.05),
		RDMAReadRequest: simtime.Micros(0.30),

		LinkBandwidth:  1.3e9,
		WireLatency:    simtime.Micros(0.15),
		SwitchLatency:  simtime.Micros(0.20),
		MTU:            2048,
		PacketOverhead: 32,
		FatTreeRadix:   8,
		LinkRetryDelay: simtime.Micros(0.5),

		HostEventPoll:    simtime.Micros(0.10),
		InterruptLatency: simtime.Micros(7.5),
		ThreadWake:       simtime.Micros(3.3),
		ThreadHandoff:    simtime.Micros(7.2),
		ThreadContention: simtime.Micros(4.7),

		QDMAMaxPayload: 2048,
		QueueSlots:     64,

		PMLMatchCost:    simtime.Micros(0.12),
		PMLRequestCost:  simtime.Micros(0.18),
		PMLScheduleCost: simtime.Micros(0.10),
		DatatypeSetup:   simtime.Micros(0.40),

		TportNICMatch: simtime.Micros(0.10),
		TportHostCost: simtime.Micros(0.25),

		TCPSyscall:       simtime.Micros(3.0),
		TCPStackCost:     simtime.Micros(8.0),
		TCPCopyBandwidth: 1.2e9,
		TCPLinkBandwidth: 125e6, // gigabit Ethernet
		TCPWireLatency:   simtime.Micros(25.0),
		TCPMTU:           1500,

		OOBLatency: simtime.Micros(50.0),
	}
}

// QuadricsFabric returns the parameters of one QsNetII rail under this
// model: the fat tree every testbed — the cluster, the MPICH-QsNetII job,
// the bare NICs under the QDMA harnesses — builds its fabric from.
func (c Config) QuadricsFabric() fabric.Params {
	return fabric.Params{
		LinkBandwidth:  c.LinkBandwidth,
		WireLatency:    c.WireLatency,
		SwitchLatency:  c.SwitchLatency,
		MTU:            c.MTU,
		PacketOverhead: c.PacketOverhead,
		Arity:          c.FatTreeRadix,
		LossRate:       c.LinkLossRate,
		RetryDelay:     c.LinkRetryDelay,
	}
}
