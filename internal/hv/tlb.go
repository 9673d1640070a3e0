package hv

import (
	"paradice/internal/grant"
	"paradice/internal/mem"
	"paradice/internal/trace"
)

// This file implements the hypervisor's deterministic software TLB and the
// grant-validation cache behind the batched grant hypercalls — the two
// per-request sublinearity optimizations of this reproduction.
//
// §5.2 prices every hypervisor-assisted memory operation as per-page
// two-level walks (guest page table, then EPT). A real hypervisor's walks are
// served by the hardware TLB and paging-structure caches after the first
// touch; this software TLB models that: a per-VM cache of
// guest-VA→system-PA translations plus permission bits, keyed by
// (VM, address-space epoch, page), consulted only by pageSPA (memops.go) —
// the per-page translation behind copyGuest and MapGuestBuffer — before
// falling back to the full walk. A hit charges perf.CostTLBHit instead of
// the walk's share of the per-page cost.
//
// Correctness rests entirely on invalidation being deterministic and
// complete, because a stale translation would break the isolation argument
// of §4/§5.2 (a revoked or remapped page served from the cache). Every
// mutation of either translation level reaches the cache synchronously:
//
//   - guest page-table leaf edits (mem.GuestSpace.OnPTEdit, fired by
//     PageTable.SetLeaf/Unmap in the same instant the PTE word changes)
//     invalidate the single (root, page) entry;
//   - any EPT mutation (mem.EPT.OnChange, fired by Map/Unmap/SetPerm)
//     flushes the whole VM's cache by bumping its epoch — EPT changes are
//     rare and page-attributable only with a reverse map, so wholesale
//     flush is the deterministic choice;
//   - grant revocation (grant.Table.OnRevoke) drops the revoked reference
//     from the grant-validation cache;
//   - RestartDriverVM flushes every VM's translation and grant caches.
//
// The grant-validation cache models Xen-style batched grant operations: the
// frontend's Declare hands the hypervisor its whole entry vector in one
// crossing (grant.Table.OnDeclare), so the backend-side validation of a
// slot's grant set becomes a cached-vector check (perf.CostTLBHit) instead
// of a shared-page scan per memory operation (perf.CostGrantDeclare).
//
// Both caches are one switch, translation caching (Config.TLB): EnableTLB
// arms every VM's TLB, and a grant table created while it is armed
// (cvd.NewGuestGrantTable) subscribes to its VM's grant cache at creation.

// tlbKey identifies one cached translation: the address space (the issuing
// process's page-table root) and the virtual page.
type tlbKey struct {
	root  mem.GuestPhys
	vpage mem.GuestVirt
}

// tlbEntry is one cached translation: the system-physical page the virtual
// page resolved to, and the union of access permissions that full walks have
// proven for it. A lookup whose access is not covered by perm misses, so a
// write through a page only ever walked for read still takes (and faults on)
// the full walk.
type tlbEntry struct {
	spaPage mem.SysPhys
	perm    mem.Perm
}

// vmTLB is one VM's software TLB. epoch counts wholesale flushes; a flush
// bumps it and replaces the entry map, which is equivalent to tagging every
// entry with the epoch it was inserted under (the issue's (VM, epoch, page)
// key) without the lazy sweep.
type vmTLB struct {
	epoch   uint64
	entries map[tlbKey]tlbEntry
}

func newVMTLB() *vmTLB {
	return &vmTLB{entries: make(map[tlbKey]tlbEntry)}
}

// lookup returns the cached system-physical page for (root, vpage) if the
// entry's proven permissions cover access.
func (t *vmTLB) lookup(root mem.GuestPhys, vpage mem.GuestVirt, access mem.Perm) (mem.SysPhys, bool) {
	e, ok := t.entries[tlbKey{root, vpage}]
	if !ok || !e.perm.Allows(access) {
		return 0, false
	}
	return e.spaPage, true
}

// insert records a translation proven by a successful full walk with the
// given access, OR-upgrading the permissions of an existing entry. A
// successful write walk proves read too (present pages are always readable
// in this page-table model).
func (t *vmTLB) insert(root mem.GuestPhys, vpage mem.GuestVirt, spaPage mem.SysPhys, access mem.Perm) {
	perm := mem.PermRead
	if access&mem.PermWrite != 0 {
		perm = mem.PermRW
	}
	k := tlbKey{root, vpage}
	if e, ok := t.entries[k]; ok {
		perm |= e.perm
	}
	t.entries[k] = tlbEntry{spaPage: spaPage, perm: perm}
}

// invalidatePage drops the entry for one (root, page) and reports whether
// one was present.
func (t *vmTLB) invalidatePage(root mem.GuestPhys, vpage mem.GuestVirt) bool {
	k := tlbKey{root, vpage}
	if _, ok := t.entries[k]; !ok {
		return false
	}
	delete(t.entries, k)
	return true
}

// flush drops every entry and enters the next address-space epoch. Returns
// the number of entries dropped.
func (t *vmTLB) flush() int {
	n := len(t.entries)
	t.epoch++
	t.entries = make(map[tlbKey]tlbEntry)
	return n
}

// grantDecl is one cached grant declaration: the vector the frontend handed
// the hypervisor in its batched declare crossing.
type grantDecl struct {
	ptRoot mem.GuestPhys
	ops    []grant.Op
}

// grantCache is one VM's cache of declared grant vectors, keyed by
// reference. Primed by grant.Table.OnDeclare (only ever after a fully
// successful Declare — the rolled-back table-full path never fires the
// hook), dropped by OnRevoke and on driver-VM restart.
type grantCache struct {
	decls map[uint32]grantDecl
}

func newGrantCache() *grantCache {
	return &grantCache{decls: make(map[uint32]grantDecl)}
}

func (c *grantCache) prime(ref uint32, ptRoot mem.GuestPhys, ops []grant.Op) {
	c.decls[ref] = grantDecl{ptRoot: ptRoot, ops: append([]grant.Op(nil), ops...)}
}

func (c *grantCache) drop(ref uint32) {
	delete(c.decls, ref)
}

func (c *grantCache) flush() {
	c.decls = make(map[uint32]grantDecl)
}

// lookup replays grant.Validate's check against the cached vector: the
// declaration's page-table root if one of its ops Covers the access.
func (c *grantCache) lookup(ref uint32, kind grant.Kind, va mem.GuestVirt, n uint64) (mem.GuestPhys, bool) {
	if ref == 0 {
		return 0, false
	}
	d, ok := c.decls[ref]
	if !ok {
		return 0, false
	}
	for _, op := range d.ops {
		if op.Covers(kind, va, n) {
			return d.ptRoot, true
		}
	}
	return 0, false
}

// EnableTLB arms the software TLB: every existing and future VM gets a
// per-VM translation cache with its invalidation hooks wired. Idempotent.
func (h *Hypervisor) EnableTLB() {
	if h.tlbEnabled {
		return
	}
	h.tlbEnabled = true
	for _, vm := range h.vms {
		h.armTLB(vm)
	}
}

// armTLB creates vm's TLB and subscribes it to both translation levels.
func (h *Hypervisor) armTLB(vm *VM) {
	if vm.tlb != nil {
		return
	}
	vm.tlb = newVMTLB()
	vm.Space.OnPTEdit = func(root mem.GuestPhys, va mem.GuestVirt) {
		if vm.tlb.invalidatePage(root, va) {
			trace.Get(h.Env).Add("hv.tlb.invalidate", 1)
		}
	}
	vm.EPT.OnChange = func() {
		if n := vm.tlb.flush(); n > 0 {
			trace.Get(h.Env).Add("hv.tlb.invalidate", uint64(n))
		}
	}
}

// EnableGrantCache arms the grant-validation cache for a guest VM's grant
// table: successful declarations prime the cache (the batched declare
// crossing), revocations drop their reference. cvd.NewGuestGrantTable calls
// it once per table, at creation, when the software TLB is armed.
func (h *Hypervisor) EnableGrantCache(vm *VM, t *grant.Table) {
	if vm.grantCache == nil {
		vm.grantCache = newGrantCache()
	}
	t.OnDeclare(func(ref uint32, ptRoot mem.GuestPhys, ops []grant.Op) {
		vm.grantCache.prime(ref, ptRoot, ops)
	})
	t.OnRevoke(func(ref uint32) {
		vm.grantCache.drop(ref)
	})
}

// TLBEnabled reports whether EnableTLB armed the software TLB.
func (h *Hypervisor) TLBEnabled() bool { return h.tlbEnabled }

// GrantCacheArmed reports whether vm's grant-validation cache is armed: the
// frontend then prices a grant declare as one batched crossing.
func (h *Hypervisor) GrantCacheArmed(vm *VM) bool { return vm.grantCache != nil }

// FlushTranslationCaches empties every VM's software TLB and grant-
// validation cache. RestartDriverVM calls this: the restart is the one
// architectural event that invalidates everything at once (backends die,
// mappings are torn down, the driver VM's address space is rebuilt), so the
// caches restart cold, exactly like the grant-map cache does.
func (h *Hypervisor) FlushTranslationCaches() {
	for _, vm := range h.vms {
		h.FlushVMTranslationCaches(vm)
	}
}

// FlushVMTranslationCaches empties ONE VM's software TLB and grant-validation
// cache. A planned handover calls this for the retiring predecessor driver VM
// only: its address space is going away, but the guest VMs' caches — guest
// page-table translations, grant vectors — describe guest state the handover
// never touched, and keeping them warm is half the point of handing over
// instead of restarting.
func (h *Hypervisor) FlushVMTranslationCaches(vm *VM) {
	if vm == nil {
		return
	}
	if vm.tlb != nil {
		if n := vm.tlb.flush(); n > 0 {
			trace.Get(h.Env).Add("hv.tlb.invalidate", uint64(n))
		}
	}
	if vm.grantCache != nil {
		vm.grantCache.flush()
	}
}
