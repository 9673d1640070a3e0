// Package nic simulates an Intel gigabit Ethernet adapter (the e1000e of
// the paper's testbed) as used by netmap: a TX queue the driver feeds with
// buffer descriptors, a DMA engine that reads packet bytes from system
// memory through the IOMMU, and a wire model that drains packets at the
// hardware's sustained small-packet rate.
package nic

import (
	"paradice/internal/iommu"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Wire and hardware model, calibrated to the paper's Figure 2: the e1000e
// sustains ~1.2 Mpps for 64-byte frames (descriptor processing bound, below
// the 1.488 Mpps theoretical line rate of gigabit Ethernet).
const (
	// BitsPerNanosecond is the line rate: 1 Gb/s = 1 bit/ns.
	BitsPerNanosecond = 1
	// FrameOverheadBytes is preamble + FCS + inter-frame gap.
	FrameOverheadBytes = 24
	// DescriptorCost is the per-packet hardware processing floor.
	DescriptorCost = 820 * sim.Nanosecond
)

// txDesc is one packet handed to the hardware.
type txDesc struct {
	bus iommu.BusAddr
	len int
}

// NIC is the simulated adapter.
type NIC struct {
	env *sim.Env
	dma *iommu.DMA

	queue []txDesc
	kick  *sim.Event

	// onComplete runs (in scheduler context) after each packet leaves the
	// wire; the netmap driver hooks it to reclaim ring slots.
	onComplete func()

	// Receive side: posted buffers and the driver's completion callback.
	rxBufs []rxBuf
	onRx   func(length int)

	// TxPackets and TxBytes count transmitted traffic.
	TxPackets uint64
	TxBytes   uint64
	// RxPackets, RxBytes, and RxDrops count received traffic.
	RxPackets uint64
	RxBytes   uint64
	RxDrops   uint64
	// Checksum folds every transmitted byte, proving the device really
	// read the packet contents out of the rings via DMA.
	Checksum uint32
	// DMAFaults counts packets dropped because the IOMMU refused access.
	DMAFaults uint64
}

// New creates the adapter.
func New(env *sim.Env) *NIC {
	n := &NIC{env: env, kick: env.NewEvent()}
	env.Spawn("nic-tx", n.txEngine)
	return n
}

// Connect attaches the DMA path (device assignment).
func (n *NIC) Connect(dma *iommu.DMA) { n.dma = dma }

// Reset models a function-level reset during driver VM restart (§8): the
// TX queue is dropped and the device detaches from its DMA domain and
// completion callback until reconnected. Counters survive (they are
// diagnostics, not device state).
func (n *NIC) Reset() {
	n.queue = nil
	n.dma = nil
	n.onComplete = nil
	n.rxBufs = nil
	n.onRx = nil
}

// OnTxComplete registers the driver's completion callback.
func (n *NIC) OnTxComplete(fn func()) { n.onComplete = fn }

// EnqueueTx hands a packet descriptor to the hardware.
func (n *NIC) EnqueueTx(bus iommu.BusAddr, length int) {
	n.queue = append(n.queue, txDesc{bus: bus, len: length})
	n.kick.Trigger()
}

// Pending returns the number of packets queued in hardware.
func (n *NIC) Pending() int { return len(n.queue) }

// --- receive path ---

// rxBuf is one receive buffer the driver posted.
type rxBuf struct {
	bus  iommu.BusAddr
	size int
}

// PostRxBuffer hands the hardware an empty receive buffer.
func (n *NIC) PostRxBuffer(bus iommu.BusAddr, size int) {
	n.rxBufs = append(n.rxBufs, rxBuf{bus: bus, size: size})
}

// OnRxComplete registers the driver's receive callback, invoked with the
// received length after the packet lands in the next posted buffer.
func (n *NIC) OnRxComplete(fn func(length int)) { n.onRx = fn }

// InjectRx models a frame arriving from the wire: after the wire time, the
// NIC DMA-writes it into the oldest posted receive buffer and completes.
// With no buffer posted the frame is dropped (RxDrops), as on hardware.
func (n *NIC) InjectRx(frame []byte) {
	wire := sim.Duration((len(frame)+FrameOverheadBytes)*8) / BitsPerNanosecond * sim.Nanosecond
	pkt := append([]byte(nil), frame...)
	n.env.After(wire, func() {
		if len(n.rxBufs) == 0 || n.dma == nil {
			n.RxDrops++
			return
		}
		buf := n.rxBufs[0]
		n.rxBufs = n.rxBufs[1:]
		m := len(pkt)
		if m > buf.size {
			m = buf.size
		}
		if err := n.dma.Write(buf.bus, pkt[:m]); err != nil {
			n.DMAFaults++
			return
		}
		n.RxPackets++
		n.RxBytes += uint64(m)
		if n.onRx != nil {
			n.onRx(m)
		}
	})
}

// txEngine drains the TX queue: per packet, the larger of the wire time and
// the descriptor-processing floor.
func (n *NIC) txEngine(p *sim.Proc) {
	for {
		if len(n.queue) == 0 {
			n.kick.Reset()
			p.Wait(n.kick)
			continue
		}
		d := n.queue[0]
		n.queue = n.queue[1:]
		buf := make([]byte, d.len)
		if n.dma == nil || n.dma.Read(d.bus, buf) != nil {
			n.DMAFaults++
			continue
		}
		wire := sim.Duration((d.len+FrameOverheadBytes)*8) / BitsPerNanosecond * sim.Nanosecond
		cost := wire
		if DescriptorCost > cost {
			cost = DescriptorCost
		}
		perf.Spend(p.Env(), "device", trace.LayerDevice, "nic-tx", cost)
		n.TxPackets++
		n.TxBytes += uint64(d.len)
		for _, b := range buf {
			n.Checksum = n.Checksum*31 + uint32(b)
		}
		if n.onComplete != nil {
			n.onComplete()
		}
	}
}
