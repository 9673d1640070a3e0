package hv

import (
	"fmt"

	"paradice/internal/faults"
	"paradice/internal/grant"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// This file implements the reverse of memops.go's MapToGuest: mapping a
// GUEST process buffer into the DRIVER VM, so the backend can satisfy
// repeated read/write data movement through one established mapping instead
// of a hypervisor-assisted copy per request (the grant-map cache's
// substrate). The mapping is validated against the guest's grant table
// exactly like a copy would be, and its EPT permissions are derived from the
// grant kind — so a driver VM misusing a cached mapping faults exactly as a
// fresh map (or a fresh assisted copy) would.

// GuestMapping is one established driver-VM mapping of a guest process
// buffer. It records the grant authorization it was created under; all data
// movement through it goes page by page through the driver VM's EPT with
// the access permission of the attempted operation, so revocation (which
// destroys the EPT entries) and wrong-direction access (a write through a
// read-only mapping) fault rather than silently touching guest memory.
type GuestMapping struct {
	h      *Hypervisor
	guest  *VM
	driver *VM

	// The authorization this mapping was validated under.
	Ref  uint32
	Kind grant.Kind
	VA   mem.GuestVirt // granted byte range (not page-rounded)
	Len  uint64

	base   mem.GuestPhys // first driver-GPA of the mapped window pages
	npages int
	dead   bool
}

// mapPerm derives the driver-side EPT permission from the grant kind: a
// copy-to-user grant authorizes the driver to write the guest buffer (and
// read it back), a copy-from-user grant authorizes reading only. Any other
// kind cannot back a data mapping.
func mapPerm(kind grant.Kind) (mem.Perm, error) {
	switch kind {
	case grant.KindCopyTo:
		return mem.PermRW, nil
	case grant.KindCopyFrom:
		return mem.PermRead, nil
	default:
		return 0, fmt.Errorf("hv: grant kind %v cannot back a buffer mapping", kind)
	}
}

// MapGuestBuffer maps the guest process pages spanning [va, va+n) into the
// driver VM's map window, validated against the guest's grant table under
// ref/kind. The walk direction and the resulting EPT permission both come
// from the kind, so the mapping can never be used for an access the grant
// would not have allowed as a copy. Charges one CostMapPage per page — the
// up-front cost the grant-map cache amortizes across requests.
func (h *Hypervisor) MapGuestBuffer(guest *VM, ref uint32, kind grant.Kind, va mem.GuestVirt, n uint64, driver *VM) (*GuestMapping, error) {
	if n == 0 {
		return nil, fmt.Errorf("hv: empty MapGuestBuffer")
	}
	if d := faults.Point(h.Env, "hv.map"); d != nil {
		return nil, d.Error()
	}
	perm, err := mapPerm(kind)
	if err != nil {
		return nil, err
	}
	pt, err := h.validate(guest, ref, kind, va, n)
	if err != nil {
		return nil, err
	}
	walkAccess := mem.PermRead
	if kind == grant.KindCopyTo {
		walkAccess = mem.PermWrite
	}
	npages := int(mem.PagesSpanned(uint64(va), n))
	if guest.tlb == nil {
		// Dormant: the per-page establishment work is one upfront charge,
		// byte-identical to the seed.
		perf.Spend(h.Env, "hv", trace.LayerHV, "map-buffer", sim.Duration(npages)*perf.CostMapPage)
	}
	trace.Get(h.Env).Add("hv.map.pages", uint64(npages))
	// Every page resolves before the window is reserved. Armed, each page is
	// charged as it resolves, so a cached translation replaces exactly the
	// walk share of the establishment cost and a cold establishment (all
	// misses) costs the dormant npages·CostMapPage; those charges yield, and
	// a window reserved before them could be reserved again by another
	// handler thread mapping meanwhile. Reserving and mapping in one instant
	// also leaves nothing to roll back when a walk faults.
	spas := make([]mem.SysPhys, 0, npages)
	for i := 0; i < npages; i++ {
		pva := mem.GuestVirt(mem.PageBase(uint64(va))) + mem.GuestVirt(i)*mem.PageSize
		spa, err := h.pageSPA(guest, &pt, pva, walkAccess, "map-buffer", perf.CostMapPage-perf.CostCopyPerPage+perf.CostTLBHit, perf.CostMapPage)
		if err != nil {
			return nil, err
		}
		spas = append(spas, spa)
	}
	base, err := driver.EPT.FindUnusedRange(mapWindowLo, mapWindowHi, npages)
	if err != nil {
		return nil, err
	}
	for i, spa := range spas {
		if err := driver.EPT.Map(base+mem.GuestPhys(i)*mem.PageSize, spa, perm); err != nil {
			unmapPages(driver, base, i)
			return nil, err
		}
	}
	return &GuestMapping{
		h: h, guest: guest, driver: driver,
		Ref: ref, Kind: kind, VA: va, Len: n,
		base: base, npages: npages,
	}, nil
}

func unmapPages(driver *VM, base mem.GuestPhys, n int) {
	for i := 0; i < n; i++ {
		_ = driver.EPT.Unmap(base + mem.GuestPhys(i)*mem.PageSize)
	}
}

// Covers reports whether the mapping's authorization satisfies an access of
// kind over [va, va+n) under the same grant reference.
func (m *GuestMapping) Covers(ref uint32, kind grant.Kind, va mem.GuestVirt, n uint64) bool {
	return !m.dead && m.Ref == ref && m.Kind == kind &&
		va >= m.VA && uint64(va)+n <= uint64(m.VA)+m.Len && uint64(va)+n >= uint64(va)
}

// Dead reports whether the mapping has been torn down.
func (m *GuestMapping) Dead() bool { return m.dead }

// Copy moves data between buf and the mapped guest buffer at va, page by
// page through the DRIVER VM's EPT with the access permission of this
// operation — which is the whole security argument for caching: a revoked
// mapping has no EPT entries left and faults; a write through a read-only
// (copy-from-user) mapping violates the EPT permission exactly as a fresh
// map would.
func (m *GuestMapping) Copy(va mem.GuestVirt, buf []byte, write bool) error {
	if m.dead {
		return fmt.Errorf("hv: access through revoked mapping of %v", m.VA)
	}
	if d := faults.Point(m.h.Env, "hv.copy"); d != nil {
		return d.Error()
	}
	if va < mem.GuestVirt(mem.PageBase(uint64(m.VA))) ||
		uint64(va)+uint64(len(buf)) > mem.PageBase(uint64(m.VA))+uint64(m.npages)*mem.PageSize {
		return fmt.Errorf("hv: access outside mapping of %v", m.VA)
	}
	access := mem.PermRead
	if write {
		access = mem.PermWrite
	}
	perf.Spend(m.h.Env, "hv", trace.LayerHV, "map-copy", perf.MapCopy(len(buf)))
	tr := trace.Get(m.h.Env)
	tr.Add("hv.mapcopy.ops", 1)
	tr.Add("hv.mapcopy.bytes", uint64(len(buf)))
	first := mem.PageBase(uint64(m.VA))
	_, err := m.h.Phys.CopyPages(uint64(va), buf, write, func(addr uint64) (mem.SysPhys, error) {
		spa, err := m.driver.EPT.Translate(m.base+mem.GuestPhys(mem.PageBase(addr)-first), access)
		return spa + mem.SysPhys(mem.PageOffset(addr)), err
	})
	return err
}

// Unmap destroys the mapping: every driver-EPT entry is removed, so
// subsequent access through the cached mapping faults. Idempotent. Charges
// the same per-page teardown cost as UnmapFromGuest when running in process
// context.
func (m *GuestMapping) Unmap() {
	if m.dead {
		return
	}
	m.dead = true
	perf.Spend(m.h.Env, "hv", trace.LayerHV, "unmap-buffer", sim.Duration(m.npages)*perf.CostMapPage)
	trace.Get(m.h.Env).Add("hv.unmap.pages", uint64(m.npages))
	unmapPages(m.driver, m.base, m.npages)
}
