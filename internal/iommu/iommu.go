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

type entry struct {
	spa  mem.SysPhys
	perm mem.Perm
}

// Domain is the translation domain of one assigned device.
type Domain struct {
	name    string
	live    map[uint64]entry              // bus frame -> entry, currently active
	regions map[RegionID]map[uint64]entry // staged per-region mappings
	// spans holds the RegionGlobal ranges MapRange installs, one run each
	// however many pages it covers, keyed by bus address. They are always
	// live; a page carved out of a span leaves it.
	spans  *mem.EPT
	active RegionID
	// onUnmapLive, when set, runs for every page leaving the live table
	// during a region switch — the hypervisor hooks this to zero pages.
	onUnmapLive func(bus BusAddr, spa mem.SysPhys)
}

// NewDomain returns a domain with no mappings and RegionGlobal active.
func NewDomain(name string) *Domain {
	return &Domain{
		name:    name,
		live:    make(map[uint64]entry),
		regions: map[RegionID]map[uint64]entry{RegionGlobal: {}},
		spans:   mem.NewEPT(),
	}
}

// Name returns the domain's name (the device it serves).
func (d *Domain) Name() string { return d.name }

func frame(a BusAddr) uint64 { return uint64(a) >> mem.PageShift }

// MapRange installs identity-permission mappings for a contiguous run of
// pages, bus -> spa. This is plain device assignment: "the hypervisor
// programs the IOMMU to allow the device to DMA to all physical addresses in
// the driver VM". The run is one RegionGlobal span, live at once, installed
// all-or-nothing; its pages collide with AddPage and GrantPages like pages
// added one by one.
func (d *Domain) MapRange(bus BusAddr, spa mem.SysPhys, npages int, perm mem.Perm) error {
	if npages <= 0 {
		return nil
	}
	if !mem.PageAligned(uint64(bus)) || !mem.PageAligned(uint64(spa)) {
		return fmt.Errorf("iommu: unaligned MapRange bus:%#x -> %v", uint64(bus), spa)
	}
	lo, hi := frame(bus), frame(bus)+uint64(npages)
	hit, hitRegion := hi, RegionGlobal
	for id, r := range d.regions {
		for f := range r {
			if f >= lo && f < hit {
				hit, hitRegion = f, id
			}
		}
	}
	if hit < hi {
		return fmt.Errorf("iommu: bus:%#x already mapped in region %d", hit<<mem.PageShift, hitRegion)
	}
	if err := d.spans.MapRange(mem.GuestPhys(bus), spa, npages, perm); err != nil {
		return fmt.Errorf("iommu: bus:%#x+%d pages overlaps a mapping in region %d", uint64(bus), npages, RegionGlobal)
	}
	return nil
}

// AddPage stages a mapping in a region. Pages in RegionGlobal or in the
// active region also enter the live table immediately.
func (d *Domain) AddPage(region RegionID, bus BusAddr, spa mem.SysPhys, perm mem.Perm) error {
	if !mem.PageAligned(uint64(bus)) || !mem.PageAligned(uint64(spa)) {
		return fmt.Errorf("iommu: unaligned AddPage bus:%#x -> %v", uint64(bus), spa)
	}
	r := d.regions[region]
	if r == nil {
		r = make(map[uint64]entry)
		d.regions[region] = r
	}
	f := frame(bus)
	if _, ok := r[f]; ok {
		return fmt.Errorf("iommu: bus:%#x already mapped in region %d", uint64(bus), region)
	}
	if d.spans.Mapped(mem.GuestPhys(bus)) {
		return fmt.Errorf("iommu: bus:%#x already mapped in region %d", uint64(bus), RegionGlobal)
	}
	// A bus frame must belong to exactly one region, or live-table entries
	// would be ambiguous.
	for id, other := range d.regions {
		if id != region {
			if _, ok := other[f]; ok {
				return fmt.Errorf("iommu: bus:%#x already mapped in region %d", uint64(bus), id)
			}
		}
	}
	e := entry{spa: spa, perm: perm}
	r[f] = e
	if region == RegionGlobal || region == d.active {
		d.live[f] = e
	}
	return nil
}

// GrantPages installs mappings for a run of contiguous bus pages backed by
// NON-contiguous system pages — a grant-mapped guest buffer, whose pages
// come from wherever the guest's allocator put them. The pages land in
// RegionGlobal so the device can DMA straight into the guest buffer
// regardless of the active protected region (the buffer's isolation is the
// grant check, not the region machinery). Installed all-or-nothing.
func (d *Domain) GrantPages(bus BusAddr, spas []mem.SysPhys, perm mem.Perm) error {
	for i, spa := range spas {
		if err := d.AddPage(RegionGlobal, bus+BusAddr(i*mem.PageSize), spa, perm); err != nil {
			_ = d.RevokePages(bus, i)
			return err
		}
	}
	return nil
}

// RevokePages withdraws npages contiguous bus pages installed by
// GrantPages. Pages already gone are skipped — revocation after a partial
// install or a region teardown must still succeed.
func (d *Domain) RevokePages(bus BusAddr, npages int) error {
	for i := 0; i < npages; i++ {
		b := bus + BusAddr(i*mem.PageSize)
		f := frame(b)
		if _, ok := d.regions[RegionGlobal][f]; ok {
			delete(d.regions[RegionGlobal], f)
			delete(d.live, f)
		} else if d.spans.Mapped(mem.GuestPhys(b)) {
			_ = d.spans.Unmap(mem.GuestPhys(b))
		}
	}
	return nil
}

// RemovePage withdraws a staged mapping (and its live entry, if any).
func (d *Domain) RemovePage(region RegionID, bus BusAddr) error {
	r := d.regions[region]
	f := frame(bus)
	if r == nil {
		return fmt.Errorf("iommu: unknown region %d", region)
	}
	if _, ok := r[f]; !ok {
		if region == RegionGlobal && d.spans.Mapped(mem.GuestPhys(bus)) {
			return d.spans.Unmap(mem.GuestPhys(bus))
		}
		return fmt.Errorf("iommu: bus:%#x not mapped in region %d", uint64(bus), region)
	}
	delete(r, f)
	delete(d.live, f)
	return nil
}

// Active returns the currently active region.
func (d *Domain) Active() RegionID { return d.active }

// Switch activates region: all pages of the previously active region leave
// the live table (invoking the unmap hook) and the new region's pages enter
// it. RegionGlobal pages stay put. Switching to the active region is a no-op.
func (d *Domain) Switch(region RegionID) error {
	if region == d.active {
		return nil
	}
	if _, ok := d.regions[region]; !ok && region != RegionGlobal {
		return fmt.Errorf("iommu: switch to unknown region %d", region)
	}
	if old := d.regions[d.active]; d.active != RegionGlobal {
		for f, e := range old {
			delete(d.live, f)
			if d.onUnmapLive != nil {
				d.onUnmapLive(BusAddr(f<<mem.PageShift), e.spa)
			}
		}
	}
	d.active = region
	if region != RegionGlobal {
		for f, e := range d.regions[region] {
			d.live[f] = e
		}
	}
	return nil
}

// SetUnmapHook registers fn to run for every page leaving the live table on
// a region switch. The hypervisor uses it to zero recycled pages (§5.3).
func (d *Domain) SetUnmapHook(fn func(bus BusAddr, spa mem.SysPhys)) {
	d.onUnmapLive = fn
}

// Translate resolves a device DMA access. Only live mappings translate;
// anything else faults — this is the check that stops a compromised driver
// VM from programming the device to copy a victim's buffer out of its
// region (§4.2, attack three).
func (d *Domain) Translate(bus BusAddr, access mem.Perm) (mem.SysPhys, error) {
	e, ok := d.live[frame(bus)]
	if !ok {
		e.spa, e.perm, ok = d.spans.Lookup(mem.GuestPhys(bus))
	}
	if !ok {
		return 0, &DMAFault{Addr: bus, Access: access}
	}
	if !e.perm.Allows(access) {
		return 0, &DMAFault{Addr: bus, Access: access, Mapped: true}
	}
	return e.spa + mem.SysPhys(mem.PageOffset(uint64(bus))), nil
}

// LivePages returns the number of pages the device can reach right now,
// span pages included (diagnostics).
func (d *Domain) LivePages() int { return len(d.live) + d.spans.Count() }
