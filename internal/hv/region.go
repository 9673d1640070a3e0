package hv

import (
	"fmt"

	"paradice/internal/iommu"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/trace"
)

// This file implements device data isolation (§4.2): non-overlapping
// protected memory regions per guest VM, carved from driver VM system
// memory and device memory, with hypervisor-enforced access permissions —
// no CPU read from the driver VM, guest access only through the hypervisor
// memory operations, and device access to one region at a time through the
// IOMMU.

// Region is one guest VM's protected memory region.
type Region struct {
	ID    iommu.RegionID
	Owner VMID
	// sysPages are the driver-VM pages pooled into the region, keyed by
	// driver guest-physical frame.
	sysPages map[mem.GuestPhys]mem.SysPhys
}

// CreateRegion allocates a protected memory region owned by the given guest.
func (h *Hypervisor) CreateRegion(owner *VM) iommu.RegionID {
	id := h.nextRegion
	h.nextRegion++
	h.regions[id] = &Region{
		ID:       id,
		Owner:    owner.ID,
		sysPages: make(map[mem.GuestPhys]mem.SysPhys),
	}
	return id
}

// RegionAddSysPage moves the driver VM page at pfn into a protected region:
// the driver VM's EPT permissions for the page are removed entirely (§5.3
// change iv: x86 has no write-only mappings, so both read and write go),
// and the page is staged in the device's IOMMU domain under the region so
// the device can reach it only while that region is active. Called by the
// modified driver in its initialization phase via hypercall.
func (h *Hypervisor) RegionAddSysPage(dom *iommu.Domain, id iommu.RegionID, driver *VM, pfn mem.GuestPhys) error {
	r, ok := h.regions[id]
	if !ok {
		return fmt.Errorf("hv: unknown region %d", id)
	}
	perf.Spend(h.Env, "hv", trace.LayerHV, "hypercall", perf.CostHypercall)
	spa, err := driver.EPT.Translate(pfn, 0)
	if err != nil {
		return err
	}
	if _, dup := h.protPages[mem.Frame(uint64(spa))]; dup {
		return fmt.Errorf("hv: page %v already in a protected region", pfn)
	}
	if err := driver.EPT.SetPerm(pfn, 0); err != nil {
		return err
	}
	// Bus address = driver guest-physical address (device-assignment
	// convention), with full permissions while the region is active.
	if err := dom.AddPage(id, iommu.BusAddr(pfn), spa, mem.PermRW); err != nil {
		_ = driver.EPT.SetPerm(pfn, mem.PermRW)
		return err
	}
	r.sysPages[pfn] = spa
	h.protPages[mem.Frame(uint64(spa))] = id
	return nil
}

// RegionAddSysPageDeviceRO stages a driver-VM page that the device may only
// read, while the driver VM keeps read/write CPU access. This emulates
// write-only-for-CPU permissions (§5.3 change iv): buffers such as the GPU
// address-translation table that the driver must update but the device must
// not be able to overwrite.
func (h *Hypervisor) RegionAddSysPageDeviceRO(dom *iommu.Domain, id iommu.RegionID, driver *VM, pfn mem.GuestPhys) error {
	if _, ok := h.regions[id]; !ok && id != iommu.RegionGlobal {
		return fmt.Errorf("hv: unknown region %d", id)
	}
	perf.Spend(h.Env, "hv", trace.LayerHV, "hypercall", perf.CostHypercall)
	spa, err := driver.EPT.Translate(pfn, 0)
	if err != nil {
		return err
	}
	return dom.AddPage(id, iommu.BusAddr(pfn), spa, mem.PermRead)
}

// RegionRemoveSysPage withdraws a page from a region: the hypervisor zeros
// it before unmapping (§5.3), restores the driver VM's access, and drops
// the IOMMU staging.
func (h *Hypervisor) RegionRemoveSysPage(dom *iommu.Domain, id iommu.RegionID, driver *VM, pfn mem.GuestPhys) error {
	r, ok := h.regions[id]
	if !ok {
		return fmt.Errorf("hv: unknown region %d", id)
	}
	spa, ok := r.sysPages[pfn]
	if !ok {
		return fmt.Errorf("hv: page %v not in region %d", pfn, id)
	}
	perf.Spend(h.Env, "hv", trace.LayerHV, "hypercall", perf.CostHypercall)
	if err := h.Phys.Zero(spa, mem.PageSize); err != nil {
		return err
	}
	if err := dom.RemovePage(id, iommu.BusAddr(pfn)); err != nil {
		return err
	}
	if err := driver.EPT.SetPerm(pfn, mem.PermRW); err != nil {
		return err
	}
	delete(r.sysPages, pfn)
	delete(h.protPages, mem.Frame(uint64(spa)))
	return nil
}

// RegionSwitch activates a region on the device's IOMMU domain: from then on
// the device reaches the new region's pages and RegionGlobal's, and no
// other region's (§4.2: "the device has access permission to one memory
// region at a time").
func (h *Hypervisor) RegionSwitch(dom *iommu.Domain, id iommu.RegionID) error {
	if _, ok := h.regions[id]; !ok && id != iommu.RegionGlobal {
		return fmt.Errorf("hv: unknown region %d", id)
	}
	perf.Spend(h.Env, "hv", trace.LayerHV, "hypercall", perf.CostHypercall)
	return dom.Switch(id)
}

// ProtectDeviceRange marks device-memory pages (a BAR-backed SPA range) as
// belonging to a region, so MapToGuest enforces ownership for device memory
// exactly as for system memory, and strips the driver VM's EPT access to
// them. gpa is where the range appears in the driver VM's guest-physical
// space.
func (h *Hypervisor) ProtectDeviceRange(driver *VM, id iommu.RegionID, gpa mem.GuestPhys, size uint64) error {
	if _, ok := h.regions[id]; !ok {
		return fmt.Errorf("hv: unknown region %d", id)
	}
	for off := uint64(0); off < size; off += mem.PageSize {
		spa, err := driver.EPT.Translate(gpa+mem.GuestPhys(off), 0)
		if err != nil {
			return err
		}
		if err := driver.EPT.SetPerm(gpa+mem.GuestPhys(off), 0); err != nil {
			return err
		}
		h.protPages[mem.Frame(uint64(spa))] = id
	}
	return nil
}

// Gate guards an MMIO register page the hypervisor has taken away from the
// driver VM (§5.3 change iii: the GPU memory-controller registers). Once
// revoked, driver accesses fault; the driver must go through HypercallAccess.
type Gate struct {
	name    string
	revoked bool
}

// NewGate returns an open gate for a named register page.
func NewGate(name string) *Gate { return &Gate{name: name} }

// Revoke unmaps the register page from the driver VM.
func (g *Gate) Revoke() { g.revoked = true }

// Revoked reports whether the gate is closed to direct driver access.
func (g *Gate) Revoked() bool { return g.revoked }

// Check returns an error if direct driver access is no longer permitted.
func (g *Gate) Check() error {
	if g.revoked {
		return fmt.Errorf("hv: MMIO page %s unmapped from driver VM", g.name)
	}
	return nil
}

// HypercallAccess runs fn with hypervisor privilege regardless of the
// gate's state, charging hypercall cost.
func (h *Hypervisor) HypercallAccess(g *Gate, fn func()) {
	perf.Spend(h.Env, "hv", trace.LayerHV, "hypercall", perf.CostHypercall)
	fn()
}
