// Package iommu simulates the I/O Memory Management Unit Paradice relies on
// for two jobs: confining an assigned device's DMA to the driver VM
// (device assignment, §3.1), and — under device data isolation (§4.2) —
// restricting the device to the protected memory region of one guest VM at
// a time, with the hypervisor switching regions on request.
package iommu

import (
	"fmt"

	"paradice/internal/mem"
)

// BusAddr is the address a device places on the bus for DMA. With device
// assignment the IOMMU is programmed so bus addresses equal the driver VM's
// guest-physical addresses.
type BusAddr uint64

// RegionID identifies a protected memory region. RegionGlobal holds pages
// that must stay mapped regardless of which guest's region is active (e.g.
// the GPU's address-translation buffers, which §5.3 creates "on all memory
// regions").
type RegionID int

// RegionGlobal is the always-mapped region.
const RegionGlobal RegionID = 0

// DMAFault reports a device DMA the IOMMU refused.
type DMAFault struct {
	Addr   BusAddr
	Access mem.Perm
	Mapped bool
}

func (e *DMAFault) Error() string {
	if !e.Mapped {
		return fmt.Sprintf("iommu: DMA fault at bus:%#x (unmapped)", uint64(e.Addr))
	}
	return fmt.Sprintf("iommu: DMA fault at bus:%#x (access %v denied)", uint64(e.Addr), e.Access)
}

// Domain is the translation domain of one assigned device. Each region's
// mappings are one run list keyed by bus address — a device BAR or the driver
// VM's RAM is one run however many pages it spans. A bus frame belongs to at
// most one region, so a DMA translates through RegionGlobal, then through
// the active region, and switching regions only changes which table is
// active.
type Domain struct {
	name    string
	regions map[RegionID]*mem.EPT // RegionGlobal always present
	active  RegionID
}

// NewDomain returns a domain with no mappings and RegionGlobal active.
func NewDomain(name string) *Domain {
	return &Domain{name: name, regions: map[RegionID]*mem.EPT{RegionGlobal: mem.NewEPT()}}
}

// Name returns the domain's name (the device it serves).
func (d *Domain) Name() string { return d.name }

// claim returns an error naming the lowest page of [bus, bus+npages) that
// any region already maps, or nil when the whole range is free.
func (d *Domain) claim(bus BusAddr, npages int) error {
	lo, hi := mem.GuestPhys(bus), mem.GuestPhys(bus)+mem.GuestPhys(npages)*mem.PageSize
	hit, hitRegion := hi, RegionGlobal
	for id, t := range d.regions {
		if _, err := t.FindUnusedRange(lo, hi, npages); err == nil {
			continue
		}
		for p := lo; p < hit; p += mem.PageSize {
			if t.Mapped(p) {
				hit, hitRegion = p, id
				break
			}
		}
	}
	if hit < hi {
		return fmt.Errorf("iommu: bus:%#x already mapped in region %d", uint64(hit), hitRegion)
	}
	return nil
}

// MapRange installs identity-permission mappings for a contiguous run of
// pages, bus -> spa. This is plain device assignment: "the hypervisor
// programs the IOMMU to allow the device to DMA to all physical addresses in
// the driver VM". The run lands in RegionGlobal, live at once, installed
// all-or-nothing.
func (d *Domain) MapRange(bus BusAddr, spa mem.SysPhys, npages int, perm mem.Perm) error {
	if npages <= 0 {
		return nil
	}
	if !mem.PageAligned(uint64(bus)) || !mem.PageAligned(uint64(spa)) {
		return fmt.Errorf("iommu: unaligned MapRange bus:%#x -> %v", uint64(bus), spa)
	}
	if err := d.claim(bus, npages); err != nil {
		return err
	}
	return d.regions[RegionGlobal].MapRange(mem.GuestPhys(bus), spa, npages, perm)
}

// AddPage stages a mapping in a region, creating the region on first use.
// A page in RegionGlobal or in the active region is live at once.
func (d *Domain) AddPage(region RegionID, bus BusAddr, spa mem.SysPhys, perm mem.Perm) error {
	if !mem.PageAligned(uint64(bus)) || !mem.PageAligned(uint64(spa)) {
		return fmt.Errorf("iommu: unaligned AddPage bus:%#x -> %v", uint64(bus), spa)
	}
	t := d.regions[region]
	if t == nil {
		t = mem.NewEPT()
		d.regions[region] = t
	}
	if err := d.claim(bus, 1); err != nil {
		return err
	}
	return t.Map(mem.GuestPhys(bus), spa, perm)
}

// RemovePage withdraws a page from a region; a page of a MapRange run is
// carved out of it.
func (d *Domain) RemovePage(region RegionID, bus BusAddr) error {
	t := d.regions[region]
	if t == nil {
		return fmt.Errorf("iommu: unknown region %d", region)
	}
	if t.Unmap(mem.GuestPhys(bus)) != nil {
		return fmt.Errorf("iommu: bus:%#x not mapped in region %d", uint64(bus), region)
	}
	return nil
}

// Active returns the currently active region.
func (d *Domain) Active() RegionID { return d.active }

// Switch activates region: from now on the device reaches RegionGlobal and
// region, and no other region's pages.
func (d *Domain) Switch(region RegionID) error {
	if d.regions[region] == nil {
		return fmt.Errorf("iommu: switch to unknown region %d", region)
	}
	d.active = region
	return nil
}

// Translate resolves a device DMA access through RegionGlobal, then the
// active region; anything else faults — this is the check that stops a
// compromised driver VM from programming the device to copy a victim's
// buffer out of its region (§4.2, attack three).
func (d *Domain) Translate(bus BusAddr, access mem.Perm) (mem.SysPhys, error) {
	spa, perm, ok := d.regions[RegionGlobal].Lookup(mem.GuestPhys(bus))
	if !ok {
		spa, perm, ok = d.regions[d.active].Lookup(mem.GuestPhys(bus))
	}
	if !ok {
		return 0, &DMAFault{Addr: bus, Access: access}
	}
	if !perm.Allows(access) {
		return 0, &DMAFault{Addr: bus, Access: access, Mapped: true}
	}
	return spa + mem.SysPhys(mem.PageOffset(uint64(bus))), nil
}

// LivePages returns the number of pages the device can reach right now
// (diagnostics).
func (d *Domain) LivePages() int {
	n := d.regions[RegionGlobal].Count()
	if d.active != RegionGlobal {
		n += d.regions[d.active].Count()
	}
	return n
}
