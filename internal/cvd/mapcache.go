package cvd

import (
	"slices"

	"paradice/internal/grant"
	"paradice/internal/hv"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/trace"
)

// The grant-map cache: the backend's bulk-transfer fast path.
//
// The slow path pays a hypervisor-assisted copy per read/write — a grant
// validation plus per-page guest-page-table and EPT walks every time (§4.1,
// perf.Copy). When the frontend keeps a data buffer's grant alive across
// requests (reqFlagMapHint), the backend instead maps the granted pages into
// the driver VM once (hv.MapGuestBuffer, validated against the grant table
// like any copy) and moves subsequent data through the established mapping
// at memcpy speed (perf.MapCopy), paying only a cached-authorization check
// (perf.CostMapCacheHit) per request.
//
// Invalidation is deterministic and total:
//   - grant revoke: grant.Table.OnRevoke fires invalidateRef in the same
//     instant the declaration leaves the shared page; the mapping's driver-EPT
//     entries are destroyed, so a stale access faults instead of silently
//     touching freed guest memory;
//   - file release: the backend drops the file's entries when it replays the
//     release;
//   - reconnect / driver-VM restart / backend death: Stop and Kill drop
//     every entry; the successor backend starts cold.
//
// Permissions are the grant's: a mapping cached under a copy-to-user grant is
// writable, one under copy-from-user is read-only, and hv.GuestMapping.Copy
// moves every byte through the driver VM's EPT with the permission of the
// attempted access — so misusing a cached mapping faults exactly as a fresh
// map (or a fresh assisted copy) would.

// mapCache is one backend's cache of established guest-buffer mappings,
// keyed like the frontend's bulk grants.
type mapCache struct {
	b       *Backend
	entries map[bulkKey]*hv.GuestMapping

	// Stats observable by tests and the bench harness.
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// enableMapCache arms the fast path on this backend and subscribes it to the
// guest's grant table so revocations tear cached mappings down in the same
// instant. The subscription outlives the backend (the table has no
// unsubscribe, deliberately — determinism over bookkeeping); a dead backend's
// callback finds an empty cache and does nothing.
func (b *Backend) enableMapCache(t *grant.Table) {
	mc := &mapCache{b: b, entries: make(map[bulkKey]*hv.GuestMapping)}
	b.mapc = mc
	t.OnRevoke(mc.invalidateRef)
}

// MapCacheStats returns the backend's grant-map cache counters
// (zero values when the fast path is disabled).
func (b *Backend) MapCacheStats() (hits, misses, invalidations uint64) {
	if b.mapc == nil {
		return 0, 0, 0
	}
	return b.mapc.Hits, b.mapc.Misses, b.mapc.Invalidations
}

// access moves data between buf and the guest buffer at va for the given
// file, through a cached mapping when one covers the access, establishing
// one over the request's whole granted buffer [bufVA, bufVA+bufLen) on a
// miss. write is the direction of the guest-memory access (true for
// copy-to-user). Returns any mapping or validation error — the conduit
// surfaces it as EFAULT, the same shape an assisted copy's denial takes.
func (mc *mapCache) access(fileID uint16, ref uint32, kind grant.Kind,
	bufVA mem.GuestVirt, bufLen uint64, va mem.GuestVirt, buf []byte, write bool) error {
	b := mc.b
	tr := trace.Get(b.hv.Env)
	key := bulkKey{fileID: fileID, kind: kind}
	if m := mc.entries[key]; m != nil && m.Covers(ref, kind, va, uint64(len(buf))) {
		mc.Hits++
		tr.Add("cvd.mapcache.hits", 1)
		perf.Spend(b.hv.Env, b.driverVM.Name, trace.LayerBE, "map-hit", perf.CostMapCacheHit)
		return m.Copy(va, buf, write)
	}
	// Miss: whatever is cached under this key no longer matches the request
	// (different buffer, different grant, or already torn down) — drop it and
	// map the request's full granted range so later sub-range accesses hit.
	mc.Misses++
	tr.Add("cvd.mapcache.misses", 1)
	if m := mc.entries[key]; m != nil {
		mc.Invalidations++
		tr.Add("cvd.mapcache.invalidations", 1)
		m.Unmap()
		delete(mc.entries, key)
	}
	m, err := b.hv.MapGuestBuffer(b.guestVM, ref, kind, bufVA, bufLen, b.driverVM)
	if err != nil {
		return err
	}
	mc.entries[key] = m
	return m.Copy(va, buf, write)
}

// invalidateRef tears down every cached mapping established under ref. It
// runs from grant.Table.Revoke — the hypervisor destroying the driver-EPT
// entries in the same instant the grant disappears from the shared page.
func (mc *mapCache) invalidateRef(ref uint32) {
	for _, key := range mc.sortedKeys() {
		if m := mc.entries[key]; m != nil && m.Ref == ref {
			mc.Invalidations++
			trace.Get(mc.b.hv.Env).Add("cvd.mapcache.invalidations", 1)
			m.Unmap()
			delete(mc.entries, key)
		}
	}
}

// release drops the cached mappings of one file instance (backend replay of
// the file's release).
func (mc *mapCache) release(fileID uint16) {
	for _, kind := range []grant.Kind{grant.KindCopyTo, grant.KindCopyFrom} {
		key := bulkKey{fileID: fileID, kind: kind}
		if m := mc.entries[key]; m != nil {
			mc.Invalidations++
			trace.Get(mc.b.hv.Env).Add("cvd.mapcache.invalidations", 1)
			m.Unmap()
			delete(mc.entries, key)
		}
	}
}

// dropAll tears down every cached mapping — backend teardown (Stop, Kill):
// the driver VM is going away, and its EPT must not keep windows into guest
// buffers it no longer has any business reaching.
func (mc *mapCache) dropAll() {
	for _, key := range mc.sortedKeys() {
		if m := mc.entries[key]; m != nil {
			m.Unmap()
			delete(mc.entries, key)
		}
	}
}

// sortedKeys returns the cache keys in a deterministic order, so teardown
// charges and trace spans are reproducible run to run.
func (mc *mapCache) sortedKeys() []bulkKey {
	keys := make([]bulkKey, 0, len(mc.entries))
	for k := range mc.entries {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, bulkKey.compare)
	return keys
}
