// Package netmapdrv implements the netmap framework's device file
// (/dev/netmap) over the simulated e1000-class NIC — the configuration the
// paper uses to show that Paradice serves even a framework that bypasses
// the kernel network stack (§6.1.2, Figure 2).
//
// The netmap data path is exactly the real one: the application mmaps a
// shared region holding the ring descriptor page and packet buffers, writes
// packets and advances the ring head, and issues one poll per batch to sync
// the ring with the hardware. Under Paradice the mmap'ed pages are driver VM
// memory mapped cross-VM by the hypervisor, so the guest's packet bytes are
// read by the NIC's DMA engine from the very pages the guest wrote.
package netmapdrv

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/device/nic"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// NIOCREGIF binds the file to the interface and reports the memory layout:
// in/out {numSlots u32, bufSize u32, memPages u32, pad u32}.
var NIOCREGIF = devfile.IOWR('N', 0x01, 16)

// Ring geometry.
const (
	NumSlots = 256
	BufSize  = 2048

	// Ring page layout (page 0 of the mapped area).
	offHead   = 0  // u32: first TX slot the app has filled (app writes)
	offTail   = 4  // u32: first TX slot still owned by hardware (driver writes)
	offN      = 8  // u32: slot count
	offBuf    = 12 // u32: buffer size
	offRxHead = 16 // u32: first RX slot the app has consumed (app writes)
	offRxTail = 20 // u32: first RX slot still empty (driver writes)
	slotTab   = 64 // TX slot array: {len u32} per slot; buffer index == slot index
	// rxSlotTab is the RX slot array, after the 256 TX slots.
	rxSlotTab = slotTab + NumSlots*4
)

// memPages is the size of the whole mapped area: one ring page plus the TX
// and RX packet buffers.
const memPages = 1 + 2*NumSlots*BufSize/mem.PageSize

// rxBufPage returns the page index of RX slot i's buffer.
func rxBufPage(i int) int { return 1 + NumSlots*BufSize/mem.PageSize + i*BufSize/mem.PageSize }

// Driver is the netmap control device.
type Driver struct {
	kernel.BaseOps
	K   *kernel.Kernel
	NIC *nic.NIC

	pages    []mem.GuestPhys // ring page + buffer pages (driver VM frames)
	txWQ     *kernel.WaitQueue
	rxWQ     *kernel.WaitQueue
	opened   bool
	hwNext   uint32 // next TX slot to hand to hardware
	hwDone   uint32 // TX slots completed by hardware (total, mod 2^32)
	hwQueued uint32 // TX slots handed to hardware (total)
	rxTail   uint32 // next RX slot the hardware will fill
	rxPosted uint32 // RX slots currently owned by hardware
}

// Attach allocates the shared memory area and registers /dev/netmap.
func Attach(k *kernel.Kernel, n *nic.NIC) (*Driver, error) {
	d := &Driver{K: k, NIC: n, txWQ: k.NewWaitQueue(), rxWQ: k.NewWaitQueue()}
	for i := 0; i < memPages; i++ {
		pg, err := k.AllocFrame()
		if err != nil {
			return nil, err
		}
		d.pages = append(d.pages, pg)
	}
	n.OnTxComplete(func() {
		d.hwDone++
		d.writeRing(offTail, d.hwDone%NumSlots)
		d.txWQ.Wake()
	})
	n.OnRxComplete(func(length int) {
		// The frame landed in RX slot rxTail's buffer: publish its length
		// and advance the tail.
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(length))
		_ = d.K.Space.Write(d.pages[0]+mem.GuestPhys(rxSlotTab+int(d.rxTail)*4), b[:])
		d.rxTail = (d.rxTail + 1) % NumSlots
		d.rxPosted--
		d.writeRing(offRxTail, d.rxTail)
		d.rxWQ.Wake()
	})
	k.RegisterDevice("/dev/netmap", d, d)
	return d, nil
}

func (d *Driver) readRing(off int) uint32 {
	var b [4]byte
	if err := d.K.Space.Read(d.pages[0]+mem.GuestPhys(off), b[:]); err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (d *Driver) writeRing(off int, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_ = d.K.Space.Write(d.pages[0]+mem.GuestPhys(off), b[:])
}

// Open implements kernel.FileOps. The e1000e netmap driver supports a
// single netmap client at a time (§5.1: "we only allow access from one
// guest VM at a time because their drivers do not support concurrent
// access").
func (d *Driver) Open(c *kernel.FopCtx) error {
	if d.opened {
		return kernel.EBUSY
	}
	d.opened = true
	return nil
}

// Release implements kernel.FileOps.
func (d *Driver) Release(c *kernel.FopCtx) error {
	d.opened = false
	return nil
}

// Ioctl implements kernel.FileOps.
func (d *Driver) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	if cmd != NIOCREGIF {
		return 0, kernel.ENOTTY
	}
	buf := make([]byte, 16)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	// Initialize the ring page.
	d.writeRing(offHead, 0)
	d.writeRing(offTail, 0)
	d.writeRing(offRxHead, 0)
	d.writeRing(offRxTail, 0)
	d.writeRing(offN, NumSlots)
	d.writeRing(offBuf, BufSize)
	d.hwNext, d.hwDone, d.hwQueued = 0, 0, 0
	d.rxTail, d.rxPosted = 0, 0
	// Hand every RX buffer to the hardware.
	for i := 0; i < NumSlots-1; i++ {
		d.postRx(i)
	}
	binary.LittleEndian.PutUint32(buf[0:], NumSlots)
	binary.LittleEndian.PutUint32(buf[4:], BufSize)
	binary.LittleEndian.PutUint32(buf[8:], memPages)
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

// Mmap implements kernel.FileOps: the whole shared area, demand-faulted.
func (d *Driver) Mmap(c *kernel.FopCtx, v *kernel.VMA) error {
	if v.Start == 0 || v.Len > uint64(memPages)*mem.PageSize {
		return kernel.EINVAL
	}
	return nil
}

// Fault implements kernel.FileOps.
func (d *Driver) Fault(c *kernel.FopCtx, v *kernel.VMA, va mem.GuestVirt) error {
	idx := (uint64(va) - uint64(v.Start)) / mem.PageSize
	if idx >= uint64(len(d.pages)) {
		return kernel.EFAULT
	}
	return kernel.InsertPFN(c, va, d.pages[idx])
}

// postRx gives RX slot i's buffer to the hardware.
func (d *Driver) postRx(i int) {
	page := rxBufPage(i)
	off := i * BufSize % mem.PageSize
	d.NIC.PostRxBuffer(iommu.BusAddr(d.pages[page])+iommu.BusAddr(off), BufSize)
	d.rxPosted++
}

// rxSync reposts the buffers of RX slots the application has consumed and
// reports whether received frames are pending. Ring ownership: unconsumed
// frames occupy [rxHead, rxTail), the hardware owns the next rxPosted slots
// from rxTail, and everything else is free to repost (the hardware never
// owns more than NumSlots-1 slots, so full and empty stay distinguishable).
func (d *Driver) rxSync() (pending bool) {
	head := d.readRing(offRxHead)
	unconsumed := (d.rxTail + NumSlots - head) % NumSlots
	for d.rxPosted+unconsumed < NumSlots-1 {
		d.postRx(int((d.rxTail + d.rxPosted) % NumSlots))
	}
	return head != d.rxTail
}

// txSync is the heart of the netmap poll: hand every newly filled slot to
// the hardware (which DMA-reads the packet bytes from the buffer pages) and
// report whether the ring has free space.
func (d *Driver) txSync() (space bool) {
	perf.Spend(d.K.Env, d.K.Name, trace.LayerDriver, "netmap-sync", perf.CostNetmapSync)
	head := d.readRing(offHead)
	synced := 0
	for d.hwNext != head {
		slot := d.hwNext
		var b [4]byte
		_ = d.K.Space.Read(d.pages[0]+mem.GuestPhys(slotTab+slot*4), b[:])
		length := int(binary.LittleEndian.Uint32(b[:]))
		if length <= 0 || length > BufSize {
			length = 64
		}
		bufPage := 1 + int(slot)*BufSize/mem.PageSize
		bufOff := int(slot) * BufSize % mem.PageSize
		bus := iommu.BusAddr(d.pages[bufPage]) + iommu.BusAddr(bufOff)
		d.NIC.EnqueueTx(bus, length)
		d.hwQueued++
		synced++
		d.hwNext = (d.hwNext + 1) % NumSlots
	}
	perf.Spend(d.K.Env, d.K.Name, trace.LayerDriver, "netmap-tx", sim.Duration(synced)*perf.CostNetmapPerPkt)
	// Space remains while fewer than NumSlots-1 packets are in flight.
	return d.hwQueued-d.hwDone < NumSlots-1
}

// Poll implements kernel.FileOps: one poll per batch syncs both rings.
func (d *Driver) Poll(c *kernel.FopCtx, pt *kernel.PollTable) devfile.PollMask {
	pt.Register(d.txWQ)
	pt.Register(d.rxWQ)
	var mask devfile.PollMask
	if d.txSync() {
		mask |= devfile.PollOut
	}
	if d.rxSync() {
		mask |= devfile.PollIn
	}
	return mask
}
