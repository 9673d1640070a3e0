package iommu

import (
	"encoding/binary"

	"paradice/internal/faults"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// DMA is a device's path to system memory: every access translates through
// the device's IOMMU domain, page by page, before touching physical memory.
// Devices have no other way to reach system RAM.
type DMA struct {
	Dom  *Domain
	Phys *mem.PhysMem
	// Env, when set, lets the fault-injection layer force translation
	// faults on this path ("iommu.translate"). Nil is fine: injection is
	// then simply disabled.
	Env *sim.Env
}

// Read copies len(buf) bytes from bus address bus into buf.
func (d *DMA) Read(bus BusAddr, buf []byte) error {
	return d.access(bus, buf, mem.PermRead)
}

// Write copies data to bus address bus.
func (d *DMA) Write(bus BusAddr, data []byte) error {
	return d.access(bus, data, mem.PermWrite)
}

func (d *DMA) access(bus BusAddr, buf []byte, perm mem.Perm) error {
	tr := trace.Get(d.Env)
	tr.Add("iommu.dma.ops", 1)
	if faults.Point(d.Env, "iommu.translate") != nil {
		// Injected translation fault: the access dies at the IOMMU before
		// touching physical memory, exactly like an unmapped bus address.
		tr.Add("iommu.dma.faults", 1)
		return &DMAFault{Addr: bus, Access: perm}
	}
	n, err := d.Phys.CopyPages(uint64(bus), buf, perm == mem.PermWrite, func(addr uint64) (mem.SysPhys, error) {
		spa, err := d.Dom.Translate(BusAddr(addr), perm)
		if err != nil {
			tr.Add("iommu.dma.faults", 1)
			if tr != nil {
				tr.Instant(tr.RIDOf(d.Env.CurrentProc()), "device", trace.LayerDevice, "dma-fault", d.Dom.Name())
			}
		}
		return spa, err
	})
	tr.Add("iommu.dma.bytes", uint64(n))
	return err
}

// WriteU32 writes a little-endian 32-bit word.
func (d *DMA) WriteU32(bus BusAddr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return d.Write(bus, b[:])
}
